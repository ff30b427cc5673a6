"""System testability evaluation (the measurements behind Table 3).

Four configurations are graded:

* **Orig.** -- the flattened SOC with no DFT, exercised by random
  functional sequences (statistically sampled sequential fault grading);
* **HSCAN** -- cores have HSCAN but no chip-level DFT exists, so the
  chip is still graded through its functional pins;
* **FSCAN-BSCAN** -- full scan + boundary scan: every core's faults are
  graded by its own combinational ATPG set (boundary scan delivers the
  vectors unchanged), with the baseline's serial-chain test time;
* **SOCET** -- the same precomputed core test sets delivered through
  transparency (lossless by construction), with the planner's test time.

Fault coverage for the scan-based configurations is the aggregate of
per-core gate-level fault simulation of the actual ATPG patterns -- not
an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.atpg.combinational import CombinationalAtpg
from repro.baselines.fscan_bscan import fscan_bscan_report
from repro.elaborate import elaborate
from repro.faults.collapse import collapse_faults
from repro.faults.coverage import CoverageReport
from repro.faults.model import full_fault_universe
from repro.faults.simulator import sequential_fault_grade
from repro.flow.report import TestabilityRow
from repro.flow.system_netlist import flatten_soc
from repro.obs import profile_section
from repro.soc.plan import plan_soc_test
from repro.soc.system import Soc
import random


@dataclass
class SystemEvaluation:
    """Measured Table 3 rows for one SOC."""

    soc: Soc
    rows: List[TestabilityRow] = field(default_factory=list)
    per_core_reports: Dict[str, CoverageReport] = field(default_factory=dict)

    def row(self, configuration: str) -> TestabilityRow:
        for row in self.rows:
            if row.configuration == configuration:
                return row
        raise KeyError(configuration)


def _sequential_row(
    soc: Soc,
    system: str,
    configuration: str,
    with_hscan: bool,
    sequences: int,
    length: int,
    sample: int,
    seed: int,
    scan_access: str = "none",
) -> TestabilityRow:
    with profile_section(
        "faultsim.flatten", soc=soc.name, configuration=configuration
    ):
        netlist = flatten_soc(soc, with_hscan=with_hscan, scan_access=scan_access)
    faults = collapse_faults(netlist, full_fault_universe(netlist))
    rng = random.Random(seed)
    input_names = [g.name for g in netlist.inputs]
    stimuli = [
        [{name: rng.getrandbits(1) for name in input_names} for _ in range(length)]
        for _ in range(sequences)
    ]
    graded = sequential_fault_grade(netlist, stimuli, faults, sample=sample, seed=seed)
    return TestabilityRow(
        system=system,
        configuration=configuration,
        fault_coverage=graded.coverage,
        test_efficiency=graded.coverage,
        tat=None,
    )


def evaluate_system(
    soc: Soc,
    seed: int = 0,
    sequences: int = 24,
    sequence_length: int = 16,
    fault_sample: int = 160,
) -> SystemEvaluation:
    """Measure every Table 3 row for ``soc``.

    ``fault_sample`` bounds the sequential grading cost (statistical
    fault sampling); the scan-based rows grade the full collapsed
    universe of each core.
    """
    evaluation = SystemEvaluation(soc=soc)
    system = soc.name

    # HSCAN row: cores carry their scan logic but the chip gives no
    # access to it (scan pins unrouted) -- the paper's point that
    # core-level testability alone leaves the chip poorly testable
    for configuration, with_hscan in (("Orig.", False), ("HSCAN", True)):
        evaluation.rows.append(
            _sequential_row(
                soc, system, configuration, with_hscan,
                sequences, sequence_length, fault_sample, seed,
            )
        )
    per_core = {
        core.name: CombinationalAtpg(elaborate(core.circuit).netlist, seed=seed)
        .run()
        .report
        for core in soc.testable_cores()
    }
    evaluation.per_core_reports = per_core
    merged = CoverageReport(total=0, detected=0)
    for report in per_core.values():
        merged = merged.merged_with(report)

    baseline = fscan_bscan_report(soc)
    evaluation.rows.append(
        TestabilityRow(
            system=system,
            configuration="FSCAN-BSCAN",
            fault_coverage=merged.fault_coverage,
            test_efficiency=merged.test_efficiency,
            tat=baseline.total_tat,
        )
    )

    from repro.soc.optimizer import design_space

    points = design_space(soc)
    min_area = points[0]
    min_tat = min(points, key=lambda p: (p.tat, p.chip_cells))
    for label, point in (("SOCET Min. Area", min_area), ("SOCET Min. TApp.", min_tat)):
        evaluation.rows.append(
            TestabilityRow(
                system=system,
                configuration=label,
                fault_coverage=merged.fault_coverage,
                test_efficiency=merged.test_efficiency,
                tat=point.tat,
            )
        )
    return evaluation

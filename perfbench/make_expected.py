"""Regenerate the stored expected results the benchmark checks against.

* ``expected_grade.json`` -- the ``grade`` workload's coverages.
  Sequential fault simulation is exact, so each flattening graded under
  each input set's stimuli has one right detected count.
* ``expected_atpg.json`` -- detected + redundant of each ATPG core at
  each input set's seed.  An ATPG run that classifies fewer faults than
  stored has lost test efficiency, and counts as failed.

Regenerate a file only when the designs, the stimulus shape or the ATPG
algorithm change on purpose, never to make a failing check pass.

Usage (from the repository root; about 25 s per input set)::

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
from pathlib import Path

from spans import SpanRecorder
from workloads import (
    ATPG_CORES,
    CYCLES,
    EXPECTED_ATPG,
    EXPECTED_GRADE,
    INPUT_SETS,
    SEQUENCES,
    core_target,
    build_flattenings,
    grade_stimuli,
)


def expected_grade(socs) -> dict:
    from repro.faults.simulator import sequential_fault_grade

    flats = build_flattenings(SpanRecorder(), socs)
    expected = {}
    for bank in range(INPUT_SETS):
        expected[str(bank)] = {}
        for key, flat in flats.items():
            stimuli = grade_stimuli(flat.netlist, key, bank)
            result = sequential_fault_grade(flat.netlist, stimuli, flat.faults)
            expected[str(bank)][key] = [len(result.detected), result.total]
        print("grade", bank, expected[str(bank)], flush=True)
    return {"sequences": SEQUENCES, "cycles": CYCLES, "expected": expected}


def expected_atpg(socs) -> dict:
    from repro.atpg.combinational import CombinationalAtpg

    targets = [core_target(SpanRecorder(), socs[system], core) for system, core in ATPG_CORES]
    expected = {}
    for bank in range(INPUT_SETS):
        expected[str(bank)] = {}
        for target in targets:
            report = CombinationalAtpg(target.netlist, bank).run(target.faults).report
            expected[str(bank)][target.name] = [report.detected + report.redundant, report.total]
        print("atpg", bank, expected[str(bank)], flush=True)
    return {"expected": expected}


def write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main() -> int:
    from repro.designs import build_system1, build_system2

    socs = {"System1": build_system1(), "System2": build_system2()}
    write(EXPECTED_GRADE, expected_grade(socs))
    write(EXPECTED_ATPG, expected_atpg(socs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

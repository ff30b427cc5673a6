"""Section 3 worked example: testing the DISPLAY through transparency.

With the paper's 105-vector DISPLAY test set (525 HSCAN vectors through
the 4-deep chains):

* CPU Version 1 (Data->Address in 8 cycles) and a 1-cycle PREPROCESSOR
  path: 525 x 9 + 3 = 4,728 cycles;
* CPU Version 2 (3 cycles): 525 x 4 + 3 = 2,103 cycles;
* CPU Version 3 (2 cycles): 525 x 3 + 3 = 1,578 cycles;
* FSCAN-BSCAN needs (66 + 20) x 105 + 85 = 9,115 cycles.

Every one of those numbers must come out of the generic planner.
"""

from __future__ import annotations

from conftest import measure, write_bench_json, write_result

from repro.dft.tat import fscan_bscan_core_tat
from repro.soc import plan_soc_test
from repro.util import render_table

# (CPU version index, expected DISPLAY test time)
CASES = [(0, 4728), (1, 2103), (2, 1578)]


def plan_display_tests(soc):
    plans = []
    for cpu_version, _ in CASES:
        selection = {"CPU": cpu_version, "PREPROCESSOR": 1, "DISPLAY": 0}
        plans.append(plan_soc_test(soc, selection).core_plans["DISPLAY"])
    return plans


def test_sec3_display_worked_example(system1_paper_vectors, results_dir):
    soc = system1_paper_vectors
    display = soc.cores["DISPLAY"]
    assert display.test_vectors == 105
    assert display.hscan_vectors == 525  # 105 x (4+1)

    from repro.obs import METRICS

    METRICS.reset()  # the ledger record carries exactly the measured runs' counters
    plans, samples = measure(plan_display_tests, soc, rounds=3)
    write_bench_json(
        results_dir,
        "sec3_display_example",
        samples,
        {f"cpu_v{cpu_version + 1}_tat": plan.tat for (cpu_version, _), plan in zip(CASES, plans)},
    )

    rows = []
    for (cpu_version, expected), plan in zip(CASES, plans):
        rows.append(
            [f"CPU Version {cpu_version + 1}", plan.cadence, plan.scan_steps, plan.flush,
             plan.tat, expected]
        )
        assert plan.tat == expected, f"CPU V{cpu_version + 1}"

    fscan_bscan = fscan_bscan_core_tat(66, 20, 105)
    rows.append(["FSCAN-BSCAN", "-", "-", "-", fscan_bscan, 9115])
    assert fscan_bscan == 9115

    text = render_table(
        ["Configuration", "cadence", "scan steps", "flush", "DISPLAY TAT", "paper"],
        rows,
        title="Section 3 worked example: DISPLAY test application time",
    )
    write_result(results_dir, "sec3_display_example", text)

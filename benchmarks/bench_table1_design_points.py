"""Table 1: design-space exploration details for System 1.

Paper rows (area overhead cells / TAT cycles / FC% / TEff%):

    Each core min. area (pt 1):     156 / 17,387 / 98.4 / 99.8
    Each core min. latency (pt 18): 325 /  3,818 / 98.4 / 99.8
    Min. chip TApp. (pt 17):        307 /  3,806 / 98.4 / 99.8

We reproduce the three characteristic points -- minimum area, all
minimum-latency versions, and the true minimum-TAT point -- plus the
paper's punchline: picking every core's fastest version is NOT the
fastest chip (or at best ties it at higher cost).  Fault coverage is
identical across points because the same precomputed core test sets are
delivered losslessly; it is measured once by gate-level fault
simulation of the ATPG patterns (see bench_table3).
"""

from __future__ import annotations

from conftest import measure, write_bench_json, write_result

from repro.obs import METRICS
from repro.soc import design_space, plan_soc_test
from repro.util import render_table

PAPER_ROWS = [
    ("Each core min. area", 156, 17387),
    ("Each core min. latency", 325, 3818),
    ("Min. chip TApp.", 307, 3806),
]


def characteristic_points(soc):
    points = design_space(soc)
    min_area = points[0]
    all_fast = {core.name: core.version_count - 1 for core in soc.testable_cores()}
    all_fast_plan = plan_soc_test(soc, all_fast)
    min_tat = min(points, key=lambda p: (p.tat, p.chip_cells))
    return min_area, all_fast_plan, min_tat


def test_table1_design_points(system1, results_dir):
    METRICS.reset()  # the ledger record carries exactly the measured runs' counters
    (min_area, all_fast_plan, min_tat), samples = measure(
        characteristic_points, system1, rounds=3
    )
    write_bench_json(
        results_dir,
        "table1_design_points",
        samples,
        {
            "min_area": {"cells": min_area.chip_cells, "tat": min_area.tat},
            "min_latency": {
                "cells": all_fast_plan.chip_dft_cells,
                "tat": all_fast_plan.total_tat,
            },
            "min_tat": {"cells": min_tat.chip_cells, "tat": min_tat.tat},
        },
    )

    rows = [
        ["Each core min. area", min_area.chip_cells, min_area.tat,
         f"{PAPER_ROWS[0][1]} / {PAPER_ROWS[0][2]}"],
        ["Each core min. latency", all_fast_plan.chip_dft_cells, all_fast_plan.total_tat,
         f"{PAPER_ROWS[1][1]} / {PAPER_ROWS[1][2]}"],
        ["Min. chip TApp.", min_tat.chip_cells, min_tat.tat,
         f"{PAPER_ROWS[2][1]} / {PAPER_ROWS[2][2]}"],
    ]
    text = render_table(
        ["Circuit description", "A.Ov.(cells)", "TApp.(cycles)", "paper (cells / cycles)"],
        rows,
        title="Table 1: design space exploration for System 1",
    )
    write_result(results_dir, "table1_design_points", text)

    # the ordering relations the paper's table demonstrates
    assert min_area.chip_cells < all_fast_plan.chip_dft_cells
    assert min_area.tat > all_fast_plan.total_tat
    assert min_tat.tat <= all_fast_plan.total_tat
    assert min_tat.chip_cells < all_fast_plan.chip_dft_cells

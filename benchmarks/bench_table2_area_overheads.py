"""Table 2: area overheads, SOCET vs FSCAN-BSCAN, for both systems.

Paper's percentages (of the original chip area):

    System 1: FSCAN 18.8, HSCAN 10.1, BSCAN 5.2;
              SOCET chip-level 2.0 (min area) / 3.8 (min TApp);
              totals: FSCAN-BSCAN 24.0, SOCET 12.1 / 13.9.
    System 2: FSCAN 15.6, HSCAN 10.3, BSCAN 9.9;
              SOCET chip-level 1.2 / 4.7; totals 25.5 vs 11.5 / 15.0.

Absolute percentages depend on the cell library and the reconstructed
core sizes; the *relations* the table demonstrates must hold here:

* HSCAN is cheaper than full scan at the core level;
* SOCET's chip-level DFT is far cheaper than a boundary-scan ring;
* the SOCET total is well below the FSCAN-BSCAN total;
* the min-TApp variant costs more than the min-area variant.
"""

from __future__ import annotations

from conftest import measure, write_bench_json, write_result

from repro.flow import render_area_table, run_socet
from repro.obs import METRICS


def both_runs(system1, system2):
    return run_socet(system1), run_socet(system2)


def test_table2_area_overheads(system1, system2, results_dir):
    METRICS.reset()  # the ledger record carries exactly the measured runs' counters
    (run1, run2), samples = measure(both_runs, system1, system2)
    write_bench_json(
        results_dir,
        "table2_area_overheads",
        samples,
        {
            row.system: {
                "fscan_percent": row.fscan_percent,
                "hscan_percent": row.hscan_percent,
                "socet_total_percent": row.socet_total_percent,
            }
            for row in (run1.area_rows()[0], run2.area_rows()[0])
        },
    )

    rows = run1.area_rows() + run2.area_rows()
    text = render_area_table(rows)
    paper_note = (
        "\npaper: System1 FSCAN 18.8 / HSCAN 10.1 / BSCAN 5.2 / SOCET 2.0-3.8;"
        " totals 24.0 vs 12.1-13.9"
        "\n       System2 FSCAN 15.6 / HSCAN 10.3 / BSCAN 9.9 / SOCET 1.2-4.7;"
        " totals 25.5 vs 11.5-15.0"
    )
    write_result(results_dir, "table2_area_overheads", text + paper_note)

    for row in rows:
        assert row.hscan_percent < row.fscan_percent, "HSCAN must beat FSCAN"
        assert row.socet_chip_percent < row.bscan_percent, "SOCET chip DFT must beat BSCAN"
        assert row.socet_total_percent < row.fscan_bscan_total_percent, (
            "SOCET total must beat FSCAN-BSCAN total"
        )
    for run in (run1, run2):
        area_rows = run.area_rows()
        assert area_rows[0].socet_chip_cells <= area_rows[1].socet_chip_cells, (
            "min-area variant must not cost more than min-TApp variant"
        )

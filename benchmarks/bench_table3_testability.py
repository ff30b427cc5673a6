"""Table 3: fault coverage / test efficiency / test time, both systems.

Paper rows for System 1 (FC% / TEff% / cycles):

    Orig.        10.6 / 10.8 /    -
    HSCAN        14.6 / 14.9 /    -
    FSCAN-BSCAN  98.4 / 99.8 / 36,152
    SOCET        98.4 / 99.8 / 17,387 (min area) and 3,806 (min TApp)

and for System 2: 11.2 -> 13.8 -> 98.2 @ 46,394 -> 16,435 / 3,998.

Shape requirements checked here:

* the original and HSCAN-only chips have poor coverage (far below the
  scan-based rows) -- chip-level DFT is what makes core tests usable;
* FSCAN-BSCAN and SOCET reach the same (high) coverage, because the
  same core test sets are applied;
* SOCET's test time beats FSCAN-BSCAN's, and the min-TApp point beats
  the min-area point.

This is the heaviest bench (full-system sequential fault grading plus
per-core ATPG + fault simulation), so it runs one round.
"""

from __future__ import annotations

from conftest import measure, write_bench_json, write_result

from repro.flow import evaluate_system, render_testability_table
from repro.obs import METRICS


def evaluate_both(system1, system2):
    kwargs = dict(sequences=16, sequence_length=12, fault_sample=120)
    return evaluate_system(system1, **kwargs), evaluate_system(system2, **kwargs)


def test_table3_testability(system1, system2, results_dir):
    METRICS.reset()  # the ledger record carries exactly the measured runs' counters
    (ev1, ev2), samples = measure(evaluate_both, system1, system2)
    write_bench_json(
        results_dir,
        "table3_testability",
        samples,
        {
            evaluation.rows[0].system: {
                row.configuration: {"fc": row.fault_coverage, "tat": row.tat}
                for row in evaluation.rows
            }
            for evaluation in (ev1, ev2)
        },
    )

    rows = ev1.rows + ev2.rows
    text = render_testability_table(rows)
    paper_note = (
        "\npaper: System1 10.6 -> 14.6 -> 98.4@36152 -> SOCET 98.4 @17387/3806"
        "\n       System2 11.2 -> 13.8 -> 98.2@46394 -> SOCET 98.2 @16435/3998"
    )
    write_result(results_dir, "table3_testability", text + paper_note)

    for evaluation in (ev1, ev2):
        orig = evaluation.row("Orig.")
        hscan = evaluation.row("HSCAN")
        baseline = evaluation.row("FSCAN-BSCAN")
        socet_area = evaluation.row("SOCET Min. Area")
        socet_tat = evaluation.row("SOCET Min. TApp.")

        assert orig.fault_coverage < baseline.fault_coverage - 25.0, (
            "undesigned-for-test chip must grade far below scan-based coverage"
        )
        assert hscan.fault_coverage < baseline.fault_coverage - 25.0, (
            "HSCAN alone (no chip-level DFT) must stay far below scan-based coverage"
        )
        assert baseline.fault_coverage > 85.0
        assert baseline.test_efficiency > 95.0
        assert socet_area.fault_coverage == baseline.fault_coverage
        assert socet_area.tat < baseline.tat
        assert socet_tat.tat < socet_area.tat

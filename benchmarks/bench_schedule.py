"""Concurrent test-session scheduling across the registered designs.

For every registered system this bench plans the minimum-area test and
compares the paper's serial TAT (cores one after another) against the
scheduled makespan of both schedulers.  The paper's own chains
(System1/System2) serialize -- every core's test borrows its
neighbours' transparency -- so their ratio is 1.00x and the paper
tables are untouched; the parallel-topology systems overlap and the
makespan drops.
"""

from __future__ import annotations

from conftest import measure, write_bench_json, write_result

from repro.obs import METRICS
from repro.schedule import build_test_items, conflict_pairs
from repro.soc import plan_soc_test
from repro.util import render_table

ROUNDS = 3


def schedule_all(systems):
    results = []
    for soc in systems:
        plan = plan_soc_test(soc)
        greedy = plan.schedule(algorithm="greedy").validate()
        packed = plan.schedule(algorithm="sessions").validate()
        conflicts = conflict_pairs(build_test_items(plan))
        results.append((soc, plan, greedy, packed, conflicts))
    return results


def _result_payload(results):
    """The machine-readable half of the bench (goes into BENCH_*.json)."""
    return {
        soc.name: {
            "cores": len(plan.core_plans),
            "conflicts": len(conflicts),
            "serial_tat": plan.total_tat,
            "greedy_makespan": greedy.makespan,
            "session_makespan": packed.makespan,
            "sessions": len(greedy.sessions()),
        }
        for soc, plan, greedy, packed, conflicts in results
    }


def test_schedule_makespan(all_systems, results_dir):
    METRICS.reset()  # the ledger record carries exactly the measured runs' counters
    results, samples = measure(schedule_all, all_systems, rounds=ROUNDS)
    write_bench_json(results_dir, "schedule", samples, _result_payload(results))

    # determinism regression: the builders are seed-pinned, so a second
    # pass must reproduce every makespan bit-for-bit
    assert _result_payload(schedule_all(all_systems)) == _result_payload(results)

    rows = []
    for soc, plan, greedy, packed, conflicts in results:
        cores = len(plan.core_plans)
        pairs = cores * (cores - 1) // 2
        rows.append(
            [
                soc.name,
                cores,
                f"{len(conflicts)}/{pairs}",
                plan.total_tat,
                greedy.makespan,
                packed.makespan,
                len(greedy.sessions()),
                f"{greedy.speedup:.2f}x",
            ]
        )
    text = render_table(
        [
            "system",
            "cores",
            "conflicts",
            "serial TAT",
            "greedy makespan",
            "session makespan",
            "sessions",
            "speedup",
        ],
        rows,
        title="Concurrent test-session scheduling (min-area plans)",
    )
    write_result(results_dir, "schedule", text)

    by_name = {soc.name: (plan, greedy, packed) for soc, plan, greedy, packed, _ in results}
    # the paper's chains serialize: scheduling must not change their TAT
    for name in ("System1", "System2"):
        plan, greedy, packed = by_name[name]
        assert greedy.makespan == plan.total_tat
        assert packed.makespan == plan.total_tat
    # the parallel topologies must strictly beat the serial order
    for name in ("System3", "System4"):
        plan, greedy, packed = by_name[name]
        assert greedy.makespan < plan.total_tat
        assert packed.makespan < plan.total_tat
        assert greedy.makespan <= packed.makespan
    # System4 has no conflicts at all: one fully concurrent session
    plan4, greedy4, _ = by_name["System4"]
    assert len(greedy4.sessions()) == 1
    assert greedy4.makespan == max(p.tat for p in plan4.core_plans.values())

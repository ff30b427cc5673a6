"""Ablation: the two optimizer objectives and test-mux escalation.

Objective (i) minimizes TAT under an area budget (w1=1, w2=0: replace
the core with the biggest latency-number gain); objective (ii) minimizes
area under a TAT budget (w1=0, w2=1: cheapest replacement that still
helps).  When version upgrades stop paying, the optimizer escalates to
system-level test muxes on the most critical ports -- degenerating, in
the limit, toward the test-bus architecture with minimum possible test
time, exactly as Section 5.2 predicts.
"""

from __future__ import annotations

from conftest import measure, write_bench_json, write_result

from repro.baselines import evaluate_test_bus
from repro.obs import METRICS
from repro.soc import plan_soc_test
from repro.soc.optimizer import SocetOptimizer
from repro.util import render_table


def run_objectives(soc):
    optimizer = SocetOptimizer(soc)
    base = plan_soc_test(soc)
    generous = base.chip_dft_cells + 400
    plan_i, trajectory_i = optimizer.minimize_tat(generous)
    plan_ii, trajectory_ii = optimizer.minimize_area(int(base.total_tat * 0.75))
    return base, plan_i, trajectory_i, plan_ii, trajectory_ii


def test_ablation_objectives(system1, results_dir):
    METRICS.reset()  # the ledger record carries exactly the measured runs' counters
    (base, plan_i, trajectory_i, plan_ii, trajectory_ii), samples = measure(
        run_objectives, system1
    )
    write_bench_json(
        results_dir,
        "ablation_objectives",
        samples,
        {
            "base_tat": base.total_tat,
            "min_tat": {"tat": plan_i.total_tat, "steps": len(trajectory_i)},
            "min_area": {"cells": plan_ii.chip_dft_cells, "steps": len(trajectory_ii)},
        },
    )

    rows = []
    for step in trajectory_i:
        rows.append(["(i) min TAT", step.index, step.chip_cells, step.tat, step.label()])
    for step in trajectory_ii:
        rows.append(["(ii) min area", step.index, step.chip_cells, step.tat, step.label()])
    text = render_table(
        ["objective", "step", "chip cells", "TAT", "selection"],
        rows,
        title="Ablation: optimizer trajectories on System 1",
    )
    write_result(results_dir, "ablation_objectives", text)

    # objective (i): monotone non-increasing TAT along the trajectory
    tats = [step.tat for step in trajectory_i]
    assert all(a >= b for a, b in zip(tats, tats[1:]))
    assert plan_i.total_tat < base.total_tat

    # objective (ii): meets the budget with fewer cells than objective (i)'s end
    assert plan_ii.total_tat <= int(base.total_tat * 0.75)
    assert plan_ii.chip_dft_cells <= plan_i.chip_dft_cells

    # escalation floor: nothing beats the test bus
    bus = evaluate_test_bus(system1)
    assert plan_i.total_tat >= bus.total_tat


def test_ablation_escalation_degenerates_to_test_bus(system2, results_dir):
    """With an unbounded budget, escalation approaches the test-bus floor."""

    def run(soc):
        optimizer = SocetOptimizer(soc)
        return optimizer.minimize_tat(10**9)

    METRICS.reset()  # the ledger record carries exactly the measured runs' counters
    (plan, trajectory), samples = measure(run, system2)
    bus = evaluate_test_bus(system2)
    base = plan_soc_test(system2)
    write_bench_json(
        results_dir,
        "ablation_escalation",
        samples,
        {
            "final_tat": plan.total_tat,
            "bus_floor_tat": bus.total_tat,
            "test_muxes": len(plan.test_muxes),
            "steps": len(trajectory),
        },
    )

    # large budget drives TAT toward (but never below) the test-bus floor
    assert plan.total_tat < base.total_tat
    assert plan.total_tat >= bus.total_tat
    assert plan.test_muxes, "escalation should have placed system-level test muxes"

    rows = [[step.index, step.chip_cells, step.tat, len(step.plan.test_muxes)] for step in trajectory]
    text = render_table(
        ["step", "chip cells", "TAT", "test muxes"],
        rows,
        title=f"Escalation on System 2 (test-bus floor = {bus.total_tat} cycles)",
    )
    write_result(results_dir, "ablation_escalation", text)

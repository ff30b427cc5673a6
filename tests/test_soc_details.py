"""Detailed tests for planner internals, CCG, controller, and reports."""

import pytest

from repro.designs import build_system1, build_system2
from repro.flow.report import (
    AreaRow,
    TestabilityRow as ResultRow,
    render_area_table,
    render_testability_table,
)
from repro.soc import build_ccg, plan_soc_test, synthesize_controller
from repro.soc.ccg import shortest_justification
from repro.soc.controller import clock_enable_trace
from repro.soc.plan import TestMux as SystemTestMux
from repro.soc.optimizer import SocetOptimizer


@pytest.fixture(scope="module")
def system1():
    return build_system1()


@pytest.fixture(scope="module")
def system1_plan(system1):
    return plan_soc_test(system1)


class TestPlanInvariants:
    def test_every_selection_plans_successfully(self, system1):
        """All 27 version combinations must produce a consistent plan."""
        import itertools

        cores = system1.testable_cores()
        for combo in itertools.product(*[range(c.version_count) for c in cores]):
            selection = {core.name: index for core, index in zip(cores, combo)}
            plan = plan_soc_test(system1, selection)
            for core_plan in plan.core_plans.values():
                assert core_plan.cadence >= 1
                assert core_plan.tat == core_plan.scan_steps * core_plan.cadence + core_plan.flush
                for delivery in core_plan.deliveries:
                    assert delivery.latency >= 0
            assert plan.total_tat == sum(p.tat for p in plan.core_plans.values())
            assert plan.chip_dft_cells == (
                plan.version_cells + plan.test_mux_cells + plan.controller_cells
            )

    def test_faster_versions_never_slow_a_single_core(self, system1):
        """Upgrading one core's version must not slow that same core's own test
        beyond the baseline plan (its deliveries/observations can only improve
        or stay)."""
        base = plan_soc_test(system1)
        for core in system1.testable_cores():
            for index in range(1, core.version_count):
                selection = dict(base.selection)
                selection[core.name] = index
                upgraded = plan_soc_test(system1, selection)
                # other cores' tests can only get faster when this core's
                # transparency improves
                for other in system1.testable_cores():
                    if other.name == core.name:
                        continue
                    assert (
                        upgraded.core_plans[other.name].tat
                        <= base.core_plans[other.name].tat
                    ), (core.name, index, other.name)

    def test_usage_counts_are_positive(self, system1_plan):
        for key, count in system1_plan.usage_counts().items():
            assert count > 0
            assert key[1] in ("justify", "propagate")

    def test_test_mux_costs(self):
        mux = SystemTestMux("input", "X", "P", 0, 8)
        assert mux.cost == 2 * 8 + 2
        assert "P" in str(mux)


class TestCcgDetails:
    def test_ccg_nodes_match_paper_structure(self, system1):
        ccg = build_ccg(system1)
        kinds = {}
        for data in ccg.nodes.values():
            kinds[data["kind"]] = kinds.get(data["kind"], 0) + 1
        assert kinds["PI"] == 3  # Video, NUM, Reset
        assert kinds["PO"] == 6  # PORT1..6
        # CPU's Address splits: the two justification slices must be
        # present (finer propagate-terminal slices may add more nodes)
        address_nodes = {
            (n[3], n[4])
            for n in ccg.nodes
            if n[0] == "CO" and n[1] == "CPU" and n[2] == "Address"
        }
        assert {(0, 8), (8, 4)} <= address_nodes

    def test_memory_cores_absent_from_ccg(self, system1):
        ccg = build_ccg(system1)
        assert not any(len(n) > 1 and n[1] in ("RAM", "ROM") for n in ccg.nodes)

    def test_display_justification_route(self, system1):
        """Figure 9's highlighted path: NUM -> DB -> Data -> Address -> A."""
        ccg = build_ccg(system1, {"CPU": 0, "PREPROCESSOR": 1, "DISPLAY": 0})
        target = ("CO", "CPU", "Address", 0, 8)
        result = shortest_justification(ccg, target)
        assert result is not None
        cost, path = result
        assert path[0] == ("PI", "NUM")
        names = [node[1] for node in path if node[0] in ("CI", "CO")]
        assert names[:2] == ["PREPROCESSOR", "PREPROCESSOR"]
        assert cost == 1 + 6  # PRE V2 DB edge + CPU slice edge (no reservation here)

    def test_unreachable_node_returns_none(self, system1):
        ccg = build_ccg(system1)
        assert shortest_justification(ccg, ("PO", "nonexistent")) is None


class TestControllerDetails:
    def test_mux_select_signals_enumerated(self, system1_plan):
        controller = synthesize_controller(system1_plan)
        selects = [s for s in controller.signals if s.purpose == "mux-select"]
        # the CPU's paths steer at least DR_MUX/AC_MUX/PC_MUX/M
        named = {s.name for s in selects}
        assert any("CPU_M" in name for name in named)
        assert controller.counter_bits >= system1_plan.total_tat.bit_length() - 1

    def test_trace_flush_is_free_running(self, system1_plan):
        core_plan = system1_plan.core_plans["CPU"]
        trace = list(clock_enable_trace(core_plan))
        flush = trace[-core_plan.flush :] if core_plan.flush else []
        assert all(flush)


class TestOptimizerDetails:
    def test_most_critical_port_points_at_slowest_path(self, system1):
        plan = plan_soc_test(system1)
        optimizer = SocetOptimizer(system1)
        critical = optimizer.most_critical_port(plan)
        assert critical is not None
        core_name, port = critical
        slowest = max(plan.core_plans.values(), key=lambda p: p.tat)
        assert core_name == slowest.core

    def test_replacement_gain_none_at_top_version(self, system1):
        top = {c.name: c.version_count - 1 for c in system1.testable_cores()}
        plan = plan_soc_test(system1, top)
        optimizer = SocetOptimizer(system1)
        for core in system1.testable_cores():
            assert optimizer.replacement_gain(plan, core.name) is None


class TestReportRendering:
    def test_area_table_renders(self):
        row = AreaRow(
            system="S",
            original_area=1000,
            fscan_cells=150,
            hscan_cells=80,
            bscan_cells=400,
            socet_variant="Min. Area",
            socet_chip_cells=60,
        )
        text = render_area_table([row])
        assert "15.0" in text and "8.0" in text and "6.0" in text
        assert row.fscan_bscan_total_percent == pytest.approx(55.0)
        assert row.socet_total_percent == pytest.approx(14.0)

    def test_testability_table_renders(self):
        rows = [
            ResultRow("S", "Orig.", 10.6, 10.8, None),
            ResultRow("S", "SOCET", 98.4, 99.8, 17387),
        ]
        text = render_testability_table(rows)
        assert "17387" in text
        assert "-" in text  # missing TAT renders as dash

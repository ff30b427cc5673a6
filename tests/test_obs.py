"""Tests for the observability layer (tracing, metrics, profiling, CLI)."""

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro.errors import TraceSchemaError
from repro.obs import METRICS, Tracer, profile_section, span_tree_problems, stage_rows
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NOOP_SPAN, validate_chrome_trace
from repro.obs.tracer import main as tracer_main


class TestMetrics:
    def test_counter_create_or_get_and_reset_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("atpg.backtracks")
        counter.inc()
        counter.inc(4)
        assert registry.counter("atpg.backtracks") is counter
        assert counter.value == 5
        registry.reset()
        assert counter.value == 0  # cached references survive reset()
        counter.inc()
        assert registry.counters()["atpg.backtracks"] == 1

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_percentiles_nearest_rank(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t")
        for value in range(1, 101):  # 1..100
            hist.observe(value)
        assert hist.percentile(50) == 50
        assert hist.percentile(90) == 90
        assert hist.percentile(99) == 99
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 100
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1 and summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_histogram_percentile_small_sample(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t")
        hist.observe(7.0)
        assert hist.percentile(50) == 7.0
        assert hist.percentile(99) == 7.0

    def test_empty_histogram(self):
        from repro.obs.metrics import EMPTY_SUMMARY

        registry = MetricsRegistry()
        hist = registry.histogram("t")
        # an empty histogram has well-defined (null) order statistics,
        # not an exception -- scrapers and reports render it as "-"
        assert hist.percentile(50) is None
        assert hist.percentile(99) is None
        summary = hist.summary()
        assert summary == EMPTY_SUMMARY
        assert summary["count"] == 0 and summary["sum"] == 0.0
        assert summary["p50"] is None and summary["p99"] is None
        assert registry.histograms() == {}  # empty histograms are skipped

    def test_prefix_filters(self):
        registry = MetricsRegistry()
        registry.counter("atpg.a").inc()
        registry.counter("schedule.b").inc(2)
        assert set(registry.counters("atpg.")) == {"atpg.a"}
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"atpg.a": 1, "schedule.b": 2}


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("a") is NOOP_SPAN
        assert tracer.span("b", key=1) is NOOP_SPAN
        with tracer.span("a"):
            pass
        assert tracer.events() == []

    def test_span_nesting_depth_and_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("outer.inner", core="CPU") as inner:
                inner.set(extra=3)
        events = {e["name"]: e for e in tracer.events()}
        assert events["outer.inner"]["args"]["depth"] == 1
        assert events["outer.inner"]["args"]["parent"] == "outer"
        assert events["outer.inner"]["args"]["core"] == "CPU"
        assert events["outer.inner"]["args"]["extra"] == 3
        assert events["outer"]["args"]["depth"] == 0
        assert events["outer"]["args"]["parent"] is None
        # the inner span completes first and lies inside the outer one
        assert events["outer"]["ts"] <= events["outer.inner"]["ts"]
        assert events["outer"]["dur"] >= events["outer.inner"]["dur"]

    def test_chrome_export_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("atpg.run", faults=10):
            pass
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)
        (event,) = payload["traceEvents"]
        assert event["name"] == "atpg.run"
        assert event["ph"] == "X"
        assert event["cat"] == "atpg"

    def test_jsonl_export_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in lines] == ["b", "a"]

    def test_clear_resets_events(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.events() == []

    def test_threads_nest_independently(self):
        tracer = Tracer(enabled=True)

        def thread_body(index):
            with tracer.span("thread", index=index):
                with tracer.span("thread.step"):
                    pass

        threads = [threading.Thread(target=thread_body, args=(i,)) for i in range(4)]
        with tracer.span("root"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        events = tracer.events()
        assert span_tree_problems(events) == []  # unique ids, zero orphans
        validate_chrome_trace(json.loads(json.dumps(tracer.chrome_trace())))
        spans = {e["args"]["span_id"]: e for e in events}
        steps = [e for e in events if e["name"] == "thread.step"]
        assert len(steps) == 4
        # each step's parent is a thread span recorded on the same thread
        for event in steps:
            parent = spans[event["args"]["parent_id"]]
            assert parent["name"] == "thread"
            assert parent["tid"] == event["tid"]
            assert event["args"]["depth"] == 1

    def test_validate_rejects_bad_trace(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace({"noEvents": []})
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace([{"name": "a"}])  # missing ph/ts/pid/tid
        validate_chrome_trace([])  # an empty event array is loadable

    def test_main_exit_codes(self, tmp_path, capsys):
        tracer = Tracer(enabled=True)
        with tracer.span("atpg.run"):
            pass
        good = tmp_path / "trace.json"
        tracer.export_chrome(str(good))
        bad = tmp_path / "bad.json"
        bad.write_text('{"noEvents": []}\n')
        assert tracer_main([str(good)]) == 0
        assert tracer_main([str(good), str(bad)]) == 1
        assert tracer_main([str(tmp_path / "missing.json")]) == 1
        assert tracer_main([]) == 2
        out = capsys.readouterr()
        assert "ok" in out.out and "FAIL" in out.out


class TestProfileSection:
    def test_feeds_time_histogram_without_tracing(self):
        METRICS.reset()
        with profile_section("schedule.unittest"):
            pass
        hist = METRICS.histogram("schedule.unittest.time")
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_stage_rows_roll_up_by_prefix(self):
        registry = MetricsRegistry()
        registry.histogram("atpg.run.time").observe(0.5)
        registry.histogram("atpg.podem.time").observe(0.25)
        registry.counter("atpg.podem.backtracks").inc(7)
        registry.counter("schedule.items").inc(3)
        rows = stage_rows(registry, [("ATPG", "atpg"), ("schedule", "schedule")])
        atpg = rows[0]
        assert atpg["seconds"] == pytest.approx(0.75)
        assert atpg["calls"] == 2
        assert atpg["counters"] == {"podem.backtracks": 7}
        assert rows[1]["counters"] == {"items": 3}
        assert rows[1]["seconds"] == 0.0


def _bench_harness():
    """``benchmarks/conftest.py`` loaded as a plain module."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchJson:
    """``BENCH_<name>.json`` holds results only; the ledger gets the rest."""

    def test_payload_round_trip(self, tmp_path):
        from repro.obs.ledger import RunLedger

        write_bench_json = _bench_harness().write_bench_json
        results = {"System2": {"makespan": 10}, "System1": {"makespan": 7}}
        path = write_bench_json(tmp_path, "schedule", [0.004, 0.005], results)
        text = path.read_text()
        assert json.loads(text) == results
        assert text == json.dumps(results, indent=2, sort_keys=True) + "\n"
        write_bench_json(tmp_path, "schedule", [0.006], results)
        assert path.read_text() == text  # same results, same bytes
        records = RunLedger(tmp_path / "ledger.jsonl").records("schedule")
        assert [record["samples"] for record in records] == [[0.004, 0.005], [0.006]]

    def test_zero_valued_counters_are_recorded(self, tmp_path, monkeypatch):
        from repro.obs.ledger import RunLedger

        registry = MetricsRegistry()
        registry.counter("a.touched_zero")  # created, never incremented
        registry.counter("a.nonzero").inc(2)
        monkeypatch.setattr("repro.obs.METRICS", registry)
        _bench_harness().write_bench_json(tmp_path, "x", [0.1], {})
        (record,) = RunLedger(tmp_path / "ledger.jsonl").records()
        # "zero" and "absent" must be different facts for counter diffs
        assert record["counters"] == {"a.touched_zero": 0, "a.nonzero": 2}


class TestCliObservability:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_profile_smoke_with_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["profile", "System1", "--quick", "--trace", str(out)]) == 0
        stdout = capsys.readouterr().out
        for stage in ("core-level", "transparency", "chip-level", "ATPG",
                      "fault-sim", "optimizer", "schedule"):
            assert stage in stdout
        assert "backtracks" in stdout
        payload = json.loads(out.read_text())
        validate_chrome_trace(payload)
        assert payload["traceEvents"]  # the run recorded real spans
        from repro.obs import TRACER

        assert not TRACER.enabled  # main() disables tracing afterwards

    def test_metrics_flag_appends_table(self, capsys):
        from repro.cli import main

        assert main(["--metrics", "plan", "System1"]) == 0
        stdout = capsys.readouterr().out
        assert "Metrics" in stdout
        assert "chiplevel.plans" in stdout

    def test_usage_errors_become_systemexit(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["profile", "SystemX"])
        assert exc.value.code == 2  # usage errors exit 2, message on stderr
        assert "repro:" in capsys.readouterr().err


class TestDeterminism:
    def test_atpg_is_seed_deterministic(self):
        import random

        from repro.atpg.combinational import CombinationalAtpg
        from repro.designs import build_gcd
        from repro.elaborate import elaborate
        from repro.faults.collapse import collapse_faults
        from repro.faults.model import full_fault_universe

        netlist = elaborate(build_gcd()).netlist
        universe = collapse_faults(netlist, full_fault_universe(netlist))
        faults = random.Random(7).sample(universe, 50)

        def run_once():
            METRICS.reset()
            outcome = CombinationalAtpg(netlist, seed=7).run(faults)
            return outcome.patterns, dict(METRICS.counters("atpg."))

        patterns1, counters1 = run_once()
        patterns2, counters2 = run_once()
        assert patterns1 == patterns2
        assert counters1 == counters2
        assert counters1["atpg.podem.calls"] > 0

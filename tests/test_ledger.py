"""Tests for the append-only run ledger (:mod:`repro.obs.ledger`)."""

import json
import threading

import pytest

from repro.errors import LedgerSchemaError
from repro.obs import METRICS
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    environment_fingerprint,
    make_record,
    pooled_samples,
    utc_timestamp,
    validate_ledger_file,
    validate_record,
)

#: a fixed fingerprint so record-construction tests are hermetic
ENV = {"python": "3.12.0", "platform": "linux", "cpus": 8}


def record(bench="schedule", samples=(0.004, 0.005), counters=None, **kwargs):
    kwargs.setdefault("env", ENV)
    kwargs.setdefault("git_sha", None)
    kwargs.setdefault("timestamp", "2026-08-06T12:00:00Z")
    return make_record(
        bench,
        list(samples),
        counters=counters if counters is not None else {"schedule.items": 8},
        **kwargs,
    )


class TestRecordConstruction:
    def test_make_record_shape(self):
        rec = record(results={"makespan": 42})
        assert rec["schema"] == LEDGER_SCHEMA
        assert rec["schema_version"] == LEDGER_SCHEMA_VERSION
        assert rec["bench"] == "schedule"
        assert rec["kind"] == "bench"
        assert rec["samples"] == [0.004, 0.005]
        assert rec["counters"] == {"schedule.items": 8}
        assert rec["results"] == {"makespan": 42}
        validate_record(rec)  # idempotent

    def test_counters_default_to_full_registry_snapshot(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("a.nonzero").inc(3)
        registry.counter("a.zero")  # touched but never incremented
        rec = make_record(
            "bench", [0.5], registry=registry,
            env=ENV, git_sha=None, timestamp="2026-08-06T12:00:00Z",
        )
        # zeros included: "zero" and "absent" are different facts
        assert rec["counters"] == {"a.nonzero": 3, "a.zero": 0}

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint()
        assert set(env) == {"python", "platform", "cpus"}
        assert env["cpus"] >= 1

    def test_legacy_repro_jobs_env_key_still_validates(self):
        legacy = record(env=dict(ENV, repro_jobs=None))
        validate_record(legacy)

    def test_utc_timestamp_format(self):
        assert utc_timestamp(0.0) == "1970-01-01T00:00:00Z"

    def test_auto_git_sha_resolves_in_this_checkout(self):
        rec = make_record(
            "x", [1.0], counters={}, env=ENV, timestamp="2026-08-06T12:00:00Z"
        )
        assert rec["git_sha"] is None or len(rec["git_sha"]) == 40


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(LedgerSchemaError, match="must be an object"):
            validate_record([1, 2])

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda r: r.pop("samples"), "missing field 'samples'"),
            (lambda r: r.update(samples=[]), "samples list is empty"),
            (lambda r: r.update(samples=[-0.1]), "sample 0 is negative"),
            (lambda r: r.update(samples=[True]), "sample 0 is not a number"),
            (lambda r: r.update(kind="trace"), "kind 'trace'"),
            # the planning daemon's session kind, retired with the daemon
            (lambda r: r.update(kind="serve"), "kind 'serve' not in"),
            (lambda r: r.update(bench=""), "bench name is empty"),
            (lambda r: r.update(schema="other"), "schema is 'other'"),
            (lambda r: r.update(schema_version=99), "newer than"),
            (lambda r: r.pop("git_sha"), "git_sha"),
            (lambda r: r.update(git_sha=7), "string or null"),
            (lambda r: r.update(counters={"a": "x"}), "counter 'a'"),
            (lambda r: r["env"].pop("cpus"), "env misses 'cpus'"),
        ],
    )
    def test_rejects_each_violation(self, mutate, fragment):
        rec = record()
        rec["env"] = dict(rec["env"])
        mutate(rec)
        with pytest.raises(LedgerSchemaError, match=fragment):
            validate_record(rec)

    def test_collects_all_problems_in_one_error(self):
        rec = record()
        rec["samples"] = []
        rec["kind"] = "bogus"
        with pytest.raises(LedgerSchemaError) as exc:
            validate_record(rec)
        message = str(exc.value)
        assert "samples list is empty" in message and "bogus" in message


class TestRunLedger:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        assert not ledger.exists()
        assert ledger.records() == []
        ledger.append(record(samples=[0.001]))
        ledger.append(record(bench="parallel", samples=[0.002]))
        ledger.append(record(samples=[0.003]))
        assert ledger.exists()
        assert ledger.benches() == ["parallel", "schedule"]
        schedule = ledger.records("schedule")
        assert [r["samples"] for r in schedule] == [[0.001], [0.003]]
        assert ledger.latest("schedule")["samples"] == [0.003]
        assert ledger.latest("missing") is None

    def test_append_creates_parent_directory(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "nested" / "ledger.jsonl")
        ledger.append(record())
        assert len(ledger.records()) == 1

    def test_append_rejects_invalid_and_leaves_file_untouched(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record())
        bad = record()
        bad["samples"] = []
        with pytest.raises(LedgerSchemaError):
            ledger.append(bad)
        assert len(ledger.records()) == 1

    def test_each_record_is_one_json_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(record())
        ledger.append(record(bench="other"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["schema"] == LEDGER_SCHEMA

    def test_concurrent_appends_never_interleave(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        per_thread = 20

        def run(name):
            for _ in range(per_thread):
                ledger.append(record(bench=name))

        threads = [
            threading.Thread(target=run, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loaded = ledger.records()  # strict parse: torn lines would raise
        assert len(loaded) == 4 * per_thread
        for name in ("t0", "t1", "t2", "t3"):
            assert len(ledger.records(name)) == per_thread

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append(record())
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(LedgerSchemaError, match=r":2"):
            RunLedger(path).records()
        with pytest.raises(LedgerSchemaError, match="line 2"):
            validate_ledger_file(str(path))

    def test_window_slices_series_history(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for index in range(6):
            ledger.append(record(samples=[float(index + 1)]))
        window = ledger.window("schedule", 3)
        assert [r["samples"][0] for r in window] == [4.0, 5.0, 6.0]
        # before=len-1 excludes the newest record (the self-history mode)
        window = ledger.window("schedule", 3, before=5)
        assert [r["samples"][0] for r in window] == [3.0, 4.0, 5.0]
        assert [r["samples"][0] for r in ledger.window("schedule", 0)] == [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
        ]

    def test_append_from_registry(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("x.y").inc(5)
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        rec = ledger.append_from_registry(
            "bench", [0.5], registry=registry,
            env=ENV, git_sha=None, timestamp="2026-08-06T12:00:00Z",
        )
        assert rec["counters"] == {"x.y": 5}
        assert ledger.latest("bench")["counters"] == {"x.y": 5}

    def test_append_counts_in_shared_registry(self, tmp_path):
        before = METRICS.counter("ledger.appends").value
        RunLedger(tmp_path / "ledger.jsonl").append(record())
        assert METRICS.counter("ledger.appends").value == before + 1

    def test_pooled_samples(self):
        records = [record(samples=[1.0, 2.0]), record(samples=[3.0])]
        assert pooled_samples(records) == [1.0, 2.0, 3.0]

    def test_main_exit_codes(self, tmp_path, capsys):
        from repro.obs.ledger import main

        good = tmp_path / "ledger.jsonl"
        RunLedger(good).append(record())
        RunLedger(good).append(record())
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(dict(record(), samples=[])) + "\n")
        assert main([str(good)]) == 0
        assert main([str(good), str(bad)]) == 1
        assert main([str(tmp_path / "missing.jsonl")]) == 1
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "(2 records)" in out and "FAIL" in out


class TestHistogramsField:
    def summary(self, values):
        from repro.obs.metrics import MetricsRegistry

        hist = MetricsRegistry().histogram("h")
        for value in values:
            hist.observe(value)
        return hist.summary()

    def test_v3_record_round_trips(self, tmp_path):
        rec = record(histograms={"atpg.time": self.summary([0.01, 0.02])})
        assert rec["schema_version"] == LEDGER_SCHEMA_VERSION >= 3
        validate_record(rec)
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(rec)
        (read_back,) = ledger.records("schedule")
        assert read_back["histograms"]["atpg.time"]["count"] == 2

    def test_histograms_field_is_optional(self):
        rec = record()
        assert "histograms" not in rec
        validate_record(rec)

    def test_empty_summary_validates(self):
        from repro.obs.metrics import EMPTY_SUMMARY

        validate_record(record(histograms={"h": dict(EMPTY_SUMMARY)}))

    @pytest.mark.parametrize("bad, fragment", [
        ("nope", "histograms"),
        ({"h": "nope"}, "h"),
        ({"h": {"sum": 0.0}}, "count"),
        ({"h": {"count": "many", "sum": 0.0}}, "count"),
        ({"h": {"count": 1, "sum": 0.1, "p99": "slow"}}, "p99"),
    ])
    def test_rejects_malformed_histograms(self, bad, fragment):
        rec = record(histograms={"h": self.summary([0.01])})
        rec["histograms"] = bad
        with pytest.raises(LedgerSchemaError, match=fragment):
            validate_record(rec)

"""Tests for the statistical regression gates (:mod:`repro.obs.regress`)."""

import json

import pytest

from repro.errors import RegressionError
from repro.obs.ledger import RunLedger, make_record
from repro.obs import regress
from repro.obs.regress import (
    COUNTER_IGNORE,
    BenchVerdict,
    bootstrap_ratio_ci,
    compare_counters,
    compare_ledgers,
    compare_records,
    compare_wall,
    env_compatible,
    mann_whitney_p,
    min_reachable_p,
    rank_sum_u,
)

ENV = {"python": "3.12.0", "platform": "linux", "cpus": 8}
OTHER_ENV = {"python": "3.12.0", "platform": "linux", "cpus": 2}


def record(bench="b", samples=(1.0,), counters=None, env=ENV):
    return make_record(
        bench,
        list(samples),
        counters=counters if counters is not None else {"c": 1},
        env=env,
        git_sha=None,
        timestamp="2026-08-06T12:00:00Z",
    )


class TestMannWhitney:
    def test_u_statistic_no_overlap(self):
        u, ties = rank_sum_u([10.0, 11.0], [1.0, 2.0, 3.0])
        assert u == 6.0  # every candidate beats every baseline: U = n1*n2
        assert not ties

    def test_u_statistic_with_ties_uses_midranks(self):
        u, ties = rank_sum_u([1.0], [1.0])
        assert ties
        assert u == 0.5

    def test_exact_p_matches_closed_forms(self):
        # all-greater candidate: p = 1 / C(n1+n2, n1)
        p = mann_whitney_p([10.0, 11.0, 12.0], list(map(float, range(9))))
        assert p == pytest.approx(1.0 / 220.0)
        assert p == pytest.approx(min_reachable_p(3, 9))
        # all-smaller candidate: the whole distribution is in the tail
        assert mann_whitney_p([0.1], [1.0, 2.0]) == pytest.approx(1.0)

    def test_exact_p_is_a_valid_distribution(self):
        # P(U >= 0) must be exactly 1 -- the counts sum to C(n1+n2, n1)
        from repro.obs.regress import _exact_u_tail

        assert _exact_u_tail(0, 4, 5) == pytest.approx(1.0)
        assert _exact_u_tail(4 * 5 + 1, 4, 5) == 0.0

    def test_all_identical_samples_are_indistinguishable(self):
        assert mann_whitney_p([5.0] * 4, [5.0] * 6) == pytest.approx(1.0)

    def test_tied_samples_use_normal_approximation(self):
        # a tie forces the normal path; a clearly slower candidate still
        # lands near significance despite the tiny sample (n=4 vs 4)
        p = mann_whitney_p([9.0, 10.0, 10.0, 11.0], [1.0, 2.0, 3.0, 10.0])
        assert 0.0 < p < 0.10

    def test_empty_sides_rejected(self):
        with pytest.raises(RegressionError):
            mann_whitney_p([], [1.0])


class TestBootstrap:
    def test_seeded_and_deterministic(self):
        args = ([2.0, 2.1, 2.2], [1.0, 1.1, 1.2])
        assert bootstrap_ratio_ci(*args) == bootstrap_ratio_ci(*args)

    def test_ci_brackets_the_true_ratio(self):
        low, high = bootstrap_ratio_ci(
            [2.0, 2.05, 2.1, 1.95], [1.0, 1.05, 0.95, 1.02]
        )
        assert low <= 2.0 <= high
        assert low > 1.5  # clearly separated distributions

    def test_empty_rejected(self):
        with pytest.raises(RegressionError):
            bootstrap_ratio_ci([], [1.0])


class TestWallGate:
    def test_small_ratio_never_flags(self):
        result = compare_wall([1.05], [1.0, 1.0, 1.0])
        assert not result.tripped
        assert "below min_ratio" in result.note

    def test_clear_slowdown_trips(self):
        baseline = [1.0, 1.01, 0.99, 1.02, 0.98]
        result = compare_wall([6.0, 6.1, 5.9], baseline)
        assert result.tripped
        assert result.p_value <= 0.05
        assert result.ci_low > 1.0

    def test_noise_on_unchanged_run_does_not_trip(self):
        baseline = [1.0, 1.01, 0.99, 1.02, 0.98]
        result = compare_wall([1.0, 1.03, 0.97], baseline)
        assert not result.tripped

    def test_single_sample_uses_strict_threshold_fallback(self):
        # one candidate sample can never reach p <= 0.05 against 3
        assert min_reachable_p(1, 3) > regress.ALPHA
        modest = compare_wall([1.5], [1.0, 1.0, 1.0])
        assert not modest.tripped and "fallback" in modest.note
        extreme = compare_wall([2.5], [1.0, 1.0, 1.0])
        assert extreme.tripped

    def test_policy_constants(self):
        # the one policy CI, the docs and the benches gate with
        assert (regress.WINDOW, regress.MIN_SAMPLES) == (5, 3)
        assert (regress.MIN_RATIO, regress.ALPHA) == (1.25, 0.05)
        assert regress.SMALL_SAMPLE_RATIO == 2.0
        assert COUNTER_IGNORE == ("exec.", "attrib.", "explain.")


class TestCounterGate:
    def test_exact_match_passes(self):
        assert compare_counters({"a": 1, "z": 0}, {"a": 1, "z": 0}) == []

    def test_changed_added_removed_and_zero_vs_absent(self):
        drifts = compare_counters(
            {"a.b": 6, "new": 1}, {"a.b": 5, "gone": 2, "z": 0}
        )
        described = [d.describe() for d in drifts]
        assert described == [
            "a.b: 5 -> 6",
            "gone: 2 -> absent",
            "new: absent -> 1",
            "z: 0 -> absent",  # zero and absent are different facts
        ]

    def test_ignore_prefixes(self):
        drifts = compare_counters(
            {"exec.cache.hits": 1, "real": 2},
            {"exec.cache.hits": 0, "real": 2},
            ignore=("exec.",),
        )
        assert drifts == []


class TestEnvCompatibility:
    def test_patch_versions_compatible_minor_not(self):
        assert env_compatible(
            dict(ENV, python="3.12.1"), dict(ENV, python="3.12.9")
        )
        assert not env_compatible(
            dict(ENV, python="3.11.7"), dict(ENV, python="3.12.1")
        )

    def test_cpus_must_match(self):
        assert not env_compatible(ENV, OTHER_ENV)

    def test_legacy_repro_jobs_key_is_ignored(self):
        # records written before the job-count knob was removed carry it
        assert env_compatible(ENV, dict(ENV, repro_jobs=None))
        assert env_compatible(dict(ENV, repro_jobs="4"), ENV)


class TestCompareRecords:
    def test_no_baseline_skips(self):
        verdict = compare_records(record(), [])
        assert verdict.skipped and verdict.status == "skipped"
        assert not verdict.failed

    def test_counter_drift_fails_even_with_identical_timing(self):
        baseline = [record(counters={"a": 1}) for _ in range(3)]
        verdict = compare_records(record(counters={"a": 2}), baseline)
        assert verdict.failed and verdict.status == "drift"
        assert verdict.drifts[0].describe() == "a: 1 -> 2"

    def test_drift_checked_against_newest_baseline_record(self):
        baseline = [record(counters={"a": 1}), record(counters={"a": 2})]
        verdict = compare_records(record(counters={"a": 2}), baseline)
        assert not verdict.drifts

    def test_env_mismatch_downgrades_wall_to_advisory(self):
        baseline = [
            record(samples=[1.0, 1.01, 0.99], env=OTHER_ENV) for _ in range(2)
        ]
        slow = record(samples=[6.0, 6.1, 5.9])
        verdict = compare_records(slow, baseline)
        assert verdict.wall.tripped and verdict.wall.advisory
        assert verdict.status == "advisory"
        assert not verdict.failed  # advisory never fails the gate
        same_env = [record(samples=[1.0, 1.01, 0.99]) for _ in range(2)]
        assert compare_records(slow, same_env).status == "slower"

    def test_every_compared_series_gets_a_wall_verdict(self):
        baseline = [record(samples=[1.0, 1.0, 1.0]) for _ in range(2)]
        verdict = compare_records(record(samples=[9.0]), baseline)
        assert verdict.wall is not None
        assert verdict.wall.tripped and verdict.failed

    def test_tiny_baseline_not_gated(self):
        verdict = compare_records(record(samples=[9.0]), [record(samples=[1.0])])
        assert not verdict.wall.tripped
        assert "gate not applied" in verdict.wall.note

    def test_to_dict_round_trips_through_json(self):
        baseline = [record(samples=[1.0, 1.0, 1.0]) for _ in range(2)]
        verdict = compare_records(record(samples=[6.0, 6.0, 6.0]), baseline)
        payload = json.loads(json.dumps(verdict.to_dict()))
        assert payload["bench"] == "b"
        assert payload["wall"]["tripped"] is True


class TestCompareLedgers:
    def fill(self, ledger, bench, runs, counters=None, env=ENV):
        for samples in runs:
            ledger.append(record(bench, samples, counters=counters, env=env))

    def test_self_history_three_unchanged_runs_pass(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        self.fill(
            ledger, "b",
            [[1.0, 1.01, 0.99], [1.02, 0.98, 1.0], [0.99, 1.0, 1.01]],
        )
        report = compare_ledgers(ledger)
        assert report.exit_code() == 0
        assert report.verdicts[0].status == "ok"

    def test_injected_slowdown_fails(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        self.fill(ledger, "b", [[1.0, 1.01, 0.99], [1.02, 0.98, 1.0]])
        ledger.append(record("b", [6.0, 6.1, 5.9]))
        report = compare_ledgers(ledger)
        assert report.exit_code() == 1
        assert report.verdicts[0].status == "slower"

    def test_injected_counter_drift_fails(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        self.fill(ledger, "b", [[1.0]] * 3, counters={"a": 1, "z": 0})
        ledger.append(record("b", [1.0], counters={"a": 1}))
        report = compare_ledgers(ledger)
        assert report.exit_code() == 1
        (drift,) = report.verdicts[0].drifts
        assert drift.describe() == "z: 0 -> absent"

    def test_separate_baseline_ledger(self, tmp_path):
        baseline = RunLedger(tmp_path / "baseline.jsonl")
        self.fill(baseline, "b", [[1.0, 1.0, 1.0]] * 2)
        candidate = RunLedger(tmp_path / "fresh.jsonl")
        candidate.append(record("b", [1.0, 1.0, 1.0]))
        report = compare_ledgers(candidate, baseline)
        assert report.exit_code() == 0
        assert report.baseline_path == baseline.path

    def test_single_record_series_skips_and_exit_3(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record("only"))
        report = compare_ledgers(ledger)
        assert report.compared == 0
        assert report.exit_code() == 3

    def test_unknown_series_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record("b"))
        with pytest.raises(RegressionError, match="missing"):
            compare_ledgers(ledger, benches=["missing"])

    def test_render_mentions_each_series(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        self.fill(ledger, "b", [[1.0, 1.0, 1.0]] * 2)
        report = compare_ledgers(ledger)
        text = report.render()
        assert "b" in text and "series compared" in text


class TestCliRegress:
    def seed_ledger(self, path, runs, counters=None):
        ledger = RunLedger(path)
        for samples in runs:
            ledger.append(record("b", samples, counters=counters))
        return ledger

    def test_unchanged_runs_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0, 1.01, 0.99]] * 3)
        assert main(["regress", "--ledger", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_slowdown_exits_one_and_json_reports_it(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0, 1.01, 0.99], [1.02, 0.98, 1.0]])
        RunLedger(path).append(record("b", [6.0, 6.1, 5.9]))
        assert main(["regress", "--ledger", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is True
        assert payload["verdicts"][0]["status"] == "slower"

    def test_counter_drift_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]] * 3, counters={"a": 5})
        RunLedger(path).append(record("b", [1.0], counters={"a": 6}))
        assert main(["regress", "--ledger", str(path)]) == 1
        assert "5 -> 6" in capsys.readouterr().out

    def test_missing_ledger_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["regress", "--ledger", str(tmp_path / "none.jsonl")])
        assert exc.value.code == 2

    def test_unknown_series_is_usage_error(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]])
        with pytest.raises(SystemExit) as exc:
            main(["regress", "nope", "--ledger", str(path)])
        assert exc.value.code == 2

    def test_nothing_comparable_exits_three(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]])
        assert main(["regress", "--ledger", str(path)]) == 3

    def test_help_has_no_tuning_flags(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["regress", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--window", "--min-ratio", "--alpha", "--small-sample-ratio",
                     "--ignore-counter", "--wall-gate", "--no-counter-gate"):
            assert flag not in text
        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]] * 2)
        with pytest.raises(SystemExit) as exc:
            main(["regress", "--ledger", str(path), "--no-counter-gate"])
        assert exc.value.code == 2

    def test_ignored_counter_prefixes_never_drift(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        before = {prefix + "x": 5 for prefix in COUNTER_IGNORE}
        after = {prefix + "x": 6 for prefix in COUNTER_IGNORE}
        self.seed_ledger(path, [[1.0]] * 3, counters=before)
        RunLedger(path).append(record("b", [1.0], counters=after))
        assert main(["regress", "--ledger", str(path)]) == 0


def test_verdict_status_priorities():
    verdict = BenchVerdict(bench="b")
    assert verdict.status == "ok" and not verdict.failed


"""Tests for the Prometheus-style text exposition (:mod:`repro.obs.expo`)."""

import pytest

from repro.obs.expo import (
    ExpositionError,
    main,
    metric_name,
    parse_exposition,
    render_exposition,
    summary_from_series,
)
from repro.obs.metrics import MetricsRegistry


def snapshot_with_everything():
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(7)
    registry.counter("exec.cache.hits").inc(3)
    registry.gauge("serve.queue.depth").set(2)
    hist = registry.histogram("serve.queue_wait")
    for value in (0.01, 0.02, 0.03, 0.04, 0.10):
        hist.observe(value)
    registry.histogram("serve.job_latency")  # stays empty
    return registry.snapshot()


class TestRender:
    def test_names_are_prometheus_legal(self):
        assert metric_name("serve.queue_wait") == "repro_serve_queue_wait"
        assert metric_name("a-b c") == "repro_a_b_c"

    def test_counters_gauges_histograms(self):
        text = render_exposition(snapshot_with_everything())
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_requests 7" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_queue_wait summary" in text
        assert 'repro_serve_queue_wait{quantile="0.99"}' in text
        assert "repro_serve_queue_wait_count 5" in text
        # the HELP line preserves the dotted name (reversible mapping)
        assert "# HELP repro_serve_queue_wait histogram serve.queue_wait" in text

    def test_empty_histogram_renders_count_sum_only(self):
        text = render_exposition(snapshot_with_everything())
        assert "repro_serve_job_latency_count 0" in text
        assert "repro_serve_job_latency_sum 0.0" in text
        assert 'repro_serve_job_latency{' not in text  # no quantile of nothing


class TestParseRoundTrip:
    def test_round_trip(self):
        text = render_exposition(snapshot_with_everything())
        parsed = parse_exposition(text)
        requests = parsed["repro_serve_requests"]
        assert requests["type"] == "counter"
        assert requests["samples"] == [({}, 7.0)]
        wait = parsed["repro_serve_queue_wait"]
        assert wait["type"] == "summary"
        # _sum/_count fold into the base series
        kinds = {labels.get("__series__") for labels, _ in wait["samples"]}
        assert {"sum", "count"} <= kinds

    def test_summary_reconstruction(self):
        parsed = parse_exposition(render_exposition(snapshot_with_everything()))
        summary = summary_from_series(parsed, "serve.queue_wait")
        assert summary["count"] == 5
        assert summary["p99"] == pytest.approx(0.10)
        empty = summary_from_series(parsed, "serve.job_latency")
        assert empty["count"] == 0 and empty["p99"] is None
        assert summary_from_series(parsed, "not.exposed") is None

    @pytest.mark.parametrize("bad", [
        "repro_x\n",                      # sample without a value
        "repro_x{quantile=0.5} 1\n",      # unquoted label value
        "repro_x oops\n",                 # non-numeric value
        "# HELP repro_x\n",               # HELP without text
        "# TYPE repro_x widget\n",        # unknown type
    ])
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(ExpositionError):
            parse_exposition(bad)

    def test_blank_lines_and_comments_skipped(self):
        parsed = parse_exposition("\n# a free comment\nrepro_x 1\n")
        assert parsed["repro_x"]["samples"] == [({}, 1.0)]


class TestValidatorCli:
    def test_valid_file_ok(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text(render_exposition(snapshot_with_everything()))
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.prom"
        path.write_text("repro_x oops\n")
        assert main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_no_args_exit_2(self):
        assert main([]) == 2

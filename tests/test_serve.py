"""Tests for the planning daemon (``repro.serve``).

Covers the wire protocol (addresses, envelopes, job specs), the job
queue (priority order, coalescing, capacity), the daemon's full request
lifecycle over a unix-domain socket (submit/wait/cancel/timeout, result
caching, batched sweeps, per-tenant counters), determinism against the
one-shot planners, graceful drain -- including the subprocess SIGTERM
path with the ledger flush -- and ``REPRO_PLAN_CACHE`` validation.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ProtocolError, ServeError, UsageError
from repro.obs import METRICS
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeDaemon,
    start_background,
)
from repro.serve import protocol
from repro.serve.jobs import Job, JobQueue, QueueDraining, QueueFull

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestAddresses:
    def test_tcp(self):
        assert protocol.parse_address("127.0.0.1:7457") == ("tcp", ("127.0.0.1", 7457))

    def test_unix_prefix(self):
        assert protocol.parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")

    def test_bare_path_is_unix(self):
        assert protocol.parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")

    @pytest.mark.parametrize("bad", ["", "  ", "unix:", "noport", ":7457",
                                     "host:notaport", "host:70000"])
    def test_bad_addresses_raise(self, bad):
        with pytest.raises(ProtocolError):
            protocol.parse_address(bad)

    def test_roundtrip(self):
        kind, value = protocol.parse_address("unix:/tmp/x.sock")
        assert protocol.format_address(kind, value) == "unix:/tmp/x.sock"


class TestEnvelopes:
    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_request(b"not json\n")
        assert err.value.code == "bad-request"

    def test_decode_rejects_wrong_schema(self):
        line = json.dumps({"schema": "nope", "schema_version": 1, "op": "ping"})
        with pytest.raises(ProtocolError):
            protocol.decode_request(line.encode())

    def test_decode_rejects_newer_version(self):
        line = json.dumps(protocol.request_envelope("ping", schema_version=99))
        with pytest.raises(ProtocolError) as err:
            protocol.decode_request(line.encode())
        assert err.value.code == "unsupported-version"

    def test_decode_rejects_unknown_op(self):
        line = json.dumps(protocol.request_envelope("dance"))
        with pytest.raises(ProtocolError) as err:
            protocol.decode_request(line.encode())
        assert err.value.code == "unknown-op"

    def test_decode_rejects_oversized(self):
        line = b"x" * (protocol.MAX_LINE_BYTES + 1)
        with pytest.raises(ProtocolError) as err:
            protocol.decode_request(line)
        assert err.value.code == "oversized"


class TestJobSpecs:
    def test_normalizes_defaults(self):
        spec = protocol.validate_job_spec({"type": "plan", "system": "System1"})
        assert spec == {
            "type": "plan", "system": "System1", "params": {},
            "priority": 0, "timeout_s": None, "tenant": "default",
        }

    def test_sleep_is_systemless(self):
        spec = protocol.validate_job_spec({"type": "sleep", "system": "ignored"})
        assert spec["system"] is None

    @pytest.mark.parametrize("bad", [
        None,
        {"type": "nope", "system": "System1"},
        {"type": "plan"},
        {"type": "plan", "system": "System1", "priority": "high"},
        {"type": "plan", "system": "System1", "timeout_s": -1},
        {"type": "plan", "system": "System1", "tenant": "bad tenant!"},
        {"type": "plan", "system": "System1", "params": "notadict"},
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ProtocolError):
            protocol.validate_job_spec(bad)

    def test_cache_key_is_order_insensitive(self):
        a = protocol.canonical_params_key("plan", "System1", {"x": 1, "y": 2})
        b = protocol.canonical_params_key("plan", "System1", {"y": 2, "x": 1})
        assert a == b


# ----------------------------------------------------------------------
# the queue (no event loop needed for submit-side behaviour)
# ----------------------------------------------------------------------
def _job(seq, priority=0, job_type="sleep", system=None):
    return Job(id=f"j{seq}", seq=seq, type=job_type, system=system,
               params={}, priority=priority)


class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue()
        for job in (_job(1, 0), _job(2, 5), _job(3, 5), _job(4, 1)):
            queue.submit(job)
        order = []
        while True:
            popped = queue._pop_runnable()
            if popped is None:
                break
            order.append(popped.id)
        assert order == ["j2", "j3", "j4", "j1"]

    def test_capacity(self):
        queue = JobQueue(max_size=2)
        queue.submit(_job(1))
        queue.submit(_job(2))
        with pytest.raises(QueueFull):
            queue.submit(_job(3))

    def test_draining_rejects(self):
        queue = JobQueue()
        queue.start_drain()
        with pytest.raises(QueueDraining):
            queue.submit(_job(1))

    def test_coalesce_same_system_sweeps_only(self):
        queue = JobQueue()
        lead = _job(1, job_type="sweep", system="System1")
        mate = _job(2, job_type="sweep", system="System1")
        other = _job(3, job_type="sweep", system="System2")
        plan = _job(4, job_type="plan", system="System1")
        for job in (mate, other, plan):
            queue.submit(job)
        batch = queue.coalesce_sweeps(lead)
        assert [job.id for job in batch] == ["j2"]
        remaining = {entry[2].id for entry in queue._heap}
        assert remaining == {"j3", "j4"}

    def test_coalesce_orders_by_priority(self):
        queue = JobQueue()
        lead = _job(1, job_type="sweep", system="System1")
        low = _job(2, 0, job_type="sweep", system="System1")
        high = _job(3, 9, job_type="sweep", system="System1")
        queue.submit(low)
        queue.submit(high)
        batch = queue.coalesce_sweeps(lead)
        assert [job.id for job in batch] == ["j3", "j2"]


# ----------------------------------------------------------------------
# a live daemon on a unix socket (session-scoped: warm state is the point)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    socket_path = tmp_path_factory.mktemp("serve") / "repro.sock"
    daemon = start_background(
        ServeConfig(address=f"unix:{socket_path}", max_queue=8)
    )
    yield daemon
    daemon.request_drain()
    assert daemon.wait_finished(30)


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.address) as client:
        yield client


class TestDaemonBasics:
    def test_ping(self, client):
        response = client.ping()
        assert response["server"] == f"repro-serve/{protocol.PROTOCOL_VERSION}"
        assert response["draining"] is False

    def test_unknown_system_rejected_at_submit(self, client):
        with pytest.raises(ServeError) as err:
            client.submit("plan", "SystemX")
        assert err.value.code == "unknown-system"

    def test_unknown_job_id(self, client):
        with pytest.raises(ServeError) as err:
            client.status("j9999")
        assert err.value.code == "unknown-job"

    def test_result_before_done_is_not_done(self, client):
        job_id = client.submit("sleep", params={"seconds": 0.3, "steps": 10})
        with pytest.raises(ServeError) as err:
            client.result(job_id)
        assert err.value.code == "not-done"
        descriptor, _ = client.wait(job_id)
        assert descriptor["state"] == "done"

    def test_wait_timeout_returns_running_descriptor(self, client):
        job_id = client.submit("sleep", params={"seconds": 0.4, "steps": 20})
        descriptor, result = client.wait(job_id, timeout_s=0.05)
        assert descriptor["state"] in ("queued", "running")
        assert result is None
        descriptor, _ = client.wait(job_id)
        assert descriptor["state"] == "done"

    def test_bad_job_failure_is_a_failed_job_not_an_error(self, client):
        job_id = client.submit("plan", "System1",
                               params={"select": {"NOPE": 1}})
        descriptor, result = client.wait(job_id)
        assert descriptor["state"] == "failed"
        assert "NOPE" in descriptor["error"]
        assert result is None


class TestDaemonResults:
    def test_plan_matches_one_shot(self, client):
        from repro.designs import system_builders
        from repro.flow.export import plan_to_dict
        from repro.soc import plan_soc_test

        result = client.run("plan", "System1")
        soc = system_builders()["System1"]()
        assert result == plan_to_dict(plan_soc_test(soc))

    def test_sweep_matches_design_space(self, client):
        from repro.designs import system_builders
        from repro.soc import design_space

        result = client.run("sweep", "System1")
        soc = system_builders()["System1"]()
        points = design_space(soc)
        assert result["partial"] is False
        assert [(p["index"], p["tat"], p["chip_cells"], p["label"])
                for p in result["points"]] == [
            (p.index, p.tat, p.chip_cells, p.label()) for p in points
        ]

    def test_partial_sweep_selection(self, client):
        from repro.designs import system_builders
        from repro.soc import plan_soc_test

        soc = system_builders()["System1"]()
        core = soc.testable_cores()[0].name
        result = client.run("sweep", "System1",
                            params={"selections": [{core: 2}]})
        assert result["partial"] is True
        assert len(result["points"]) == 1
        point = result["points"][0]
        assert point["selection"][core] == 2
        plan = plan_soc_test(soc, {c.name: 0 for c in soc.testable_cores()}
                             | {core: 1})
        assert point["tat"] == plan.total_tat

    def test_repeat_requests_hit_the_result_cache(self, client):
        hits_before = METRICS.counter("serve.results.hits").value
        first = client.run("sweep", "System1")
        second = client.run("sweep", "System1")
        assert first == second
        assert METRICS.counter("serve.results.hits").value > hits_before

    def test_lint_job(self, client):
        result = client.run("lint", "System1")
        assert result["exit"] in (0, 1)
        assert "diagnostics" in result["report"]

    def test_tenant_counters(self, client, daemon):
        client.run("sleep", params={"seconds": 0.01}, tenant="teamA")
        stats = client.stats()
        assert stats["tenants"]["teamA"]["submitted"] >= 1
        assert stats["tenants"]["teamA"]["done"] >= 1


class TestDaemonScheduling:
    def test_priority_order_via_run_seq(self, client):
        # a blocker occupies the worker while the queue builds up
        blocker = client.submit("sleep", params={"seconds": 0.4, "steps": 20})
        low = client.submit("sleep", params={"seconds": 0.01}, priority=0)
        high = client.submit("sleep", params={"seconds": 0.01}, priority=5)
        order = {}
        for job_id in (blocker, low, high):
            descriptor, _ = client.wait(job_id)
            assert descriptor["state"] == "done"
            order[job_id] = descriptor["run_seq"]
        assert order[blocker] < order[high] < order[low]

    def test_cancel_queued(self, client):
        blocker = client.submit("sleep", params={"seconds": 0.3, "steps": 20})
        victim = client.submit("sleep", params={"seconds": 5})
        descriptor = client.cancel(victim)
        assert descriptor["state"] == "cancelled"
        descriptor, _ = client.wait(victim)
        assert descriptor["state"] == "cancelled"
        client.wait(blocker)

    def test_cancel_running_at_checkpoint(self, client):
        job_id = client.submit("sleep", params={"seconds": 20, "steps": 200})
        deadline = time.monotonic() + 10
        while client.status(job_id)["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.cancel(job_id)
        descriptor, _ = client.wait(job_id)
        assert descriptor["state"] == "cancelled"
        assert descriptor["wall_s"] < 10

    def test_per_job_timeout(self, client):
        job_id = client.submit("sleep", params={"seconds": 20, "steps": 200},
                               timeout_s=0.2)
        descriptor, _ = client.wait(job_id)
        assert descriptor["state"] == "timeout"
        assert "0.2" in descriptor["error"]

    def test_queue_full(self, client):
        blocker = client.submit("sleep", params={"seconds": 0.5, "steps": 25})
        accepted = []
        with pytest.raises(ServeError) as err:
            for _ in range(20):  # max_queue is 8
                accepted.append(
                    client.submit("sleep", params={"seconds": 0.01})
                )
        assert err.value.code == "queue-full"
        for job_id in [blocker] + accepted:
            client.wait(job_id)

    def test_sweeps_coalesce_into_one_batch(self, client):
        blocker = client.submit("sleep", params={"seconds": 0.4, "steps": 20})
        sweeps = [client.submit("sweep", "System2") for _ in range(3)]
        results = []
        for job_id in sweeps:
            descriptor, result = client.wait(job_id)
            assert descriptor["state"] == "done"
            results.append((descriptor, result))
        client.wait(blocker)
        # identical payloads, served from one coalesced batch
        assert results[0][1] == results[1][1] == results[2][1]
        batched = [d["batched_with"] for d, _ in results]
        # cached repeats don't batch, so only assert when work happened
        if METRICS.counter("serve.batch.coalesced").value:
            assert max(batched) >= 1


class TestConcurrentClients:
    def test_eight_clients_identical_results(self, daemon):
        import threading

        results = [None] * 8
        errors = []

        def worker(index):
            try:
                with ServeClient(daemon.address) as client:
                    results[index] = client.run("sweep", "System1")
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(result == results[0] for result in results)


# ----------------------------------------------------------------------
# drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_shutdown_op_finishes_queued_jobs(self, tmp_path):
        socket_path = tmp_path / "drain.sock"
        ledger_path = tmp_path / "ledger.jsonl"
        daemon = start_background(ServeConfig(
            address=f"unix:{socket_path}", ledger=str(ledger_path)
        ))
        with ServeClient(daemon.address) as client:
            running = client.submit("sleep", params={"seconds": 0.3, "steps": 15})
            queued = client.submit("sleep", params={"seconds": 0.05})
            client.shutdown()
            with pytest.raises(ServeError) as err:
                client.submit("sleep")
            assert err.value.code == "draining"
            for job_id in (running, queued):
                descriptor, _ = client.wait(job_id)
                assert descriptor["state"] == "done"
        assert daemon.wait_finished(30)

        records = [json.loads(line) for line in ledger_path.read_text().splitlines()]
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "serve"
        assert len(record["samples"]) == 2
        assert record["results"]["drained"] is True
        states = {job["id"]: job["state"] for job in record["results"]["jobs"]}
        assert set(states.values()) == {"done"}

    def test_sigterm_drains_and_flushes_ledger(self, tmp_path):
        """The subprocess path: real signal, real exit code, real flush."""
        socket_path = tmp_path / "sig.sock"
        ledger_path = tmp_path / "ledger.jsonl"
        address_file = tmp_path / "addr.txt"
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", f"unix:{socket_path}",
             "--ledger", str(ledger_path),
             "--address-file", str(address_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30
            while not address_file.exists():
                assert time.monotonic() < deadline, "daemon never became ready"
                assert process.poll() is None, process.stderr.read().decode()
                time.sleep(0.05)
            address = address_file.read_text().strip()
            with ServeClient(address) as client:
                running = client.submit("sleep",
                                        params={"seconds": 0.5, "steps": 25})
                queued = client.submit("sleep", params={"seconds": 0.05})
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

        records = [json.loads(line) for line in ledger_path.read_text().splitlines()]
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "serve"
        assert record["results"]["drained"] is True
        states = {job["id"]: job["state"] for job in record["results"]["jobs"]}
        assert states == {"j0001": "done", "j0002": "done"}
        assert len(record["samples"]) == 2


# ----------------------------------------------------------------------
# satellites: env validation, pool reuse
# ----------------------------------------------------------------------
class TestEnvValidation:
    def test_plan_cache_accepts_boolean_spellings(self, monkeypatch):
        from repro.exec.cache import CACHE_ENV, cache_enabled

        for raw, expected in [("1", True), ("TRUE", True), ("on", True),
                              ("0", False), ("False", False), ("off", False),
                              ("no", False), ("yes", True)]:
            monkeypatch.setenv(CACHE_ENV, raw)
            assert cache_enabled() is expected
        monkeypatch.delenv(CACHE_ENV)
        assert cache_enabled() is True

    def test_plan_cache_rejects_garbage(self, monkeypatch):
        from repro.exec.cache import CACHE_ENV, cache_enabled

        monkeypatch.setenv(CACHE_ENV, "fales")
        with pytest.raises(UsageError) as err:
            cache_enabled()
        assert "fales" in str(err.value)
        assert CACHE_ENV in str(err.value)


# ----------------------------------------------------------------------
# telemetry surface: job spans, metrics op, latency stats, repro top
# ----------------------------------------------------------------------
class TestTelemetrySurface:
    @pytest.fixture()
    def finished_job(self, client):
        job_id = client.submit("plan", "System1")
        descriptor, _ = client.wait(job_id)
        assert descriptor["state"] == "done"
        return job_id

    def test_job_spans_cover_the_lifecycle(self, client, finished_job):
        from repro.obs import span_tree_problems
        from repro.obs.benchjson import validate_chrome_trace

        spans = client.spans(finished_job)
        assert spans[0]["name"] == "serve.job"
        names = {event["name"] for event in spans}
        for phase in ("validate", "queue_wait", "run"):
            assert f"serve.job.{phase}" in names
        assert span_tree_problems(spans) == []
        validate_chrome_trace({"traceEvents": spans})
        root_id = spans[0]["args"]["span_id"]
        for event in spans[1:]:
            assert event["args"]["parent_id"] == root_id
            assert event["dur"] >= 0
        # each job renders on its own row: tid is the job sequence
        assert spans[0]["tid"] == int(finished_job.lstrip("j"))

    def test_descriptor_carries_queue_wait(self, client, finished_job):
        descriptor = client.status(finished_job)
        assert descriptor["queue_wait_s"] is not None
        assert descriptor["queue_wait_s"] >= 0

    def test_metrics_op_exposition_parses(self, client, finished_job):
        from repro.obs.expo import parse_exposition, summary_from_series

        text = client.metrics()
        parsed = parse_exposition(text)  # the CI scrape path
        assert any(name.startswith("repro_serve_") for name in parsed)
        latency = summary_from_series(parsed, "serve.job_latency")
        assert latency["count"] >= 1 and latency["p99"] is not None
        wait = summary_from_series(parsed, "serve.queue_wait")
        assert wait["count"] >= 1

    def test_stats_latency_summaries(self, client, finished_job):
        stats = client.stats()
        for key in ("queue_wait", "job_latency"):
            summary = stats["latency"][key]
            assert summary["count"] >= 1
            assert summary["p50"] is not None

    def test_top_renders_live_dashboard(self, daemon, client, finished_job):
        import io

        from repro.serve.top import poll, render_frame, run_top

        with ServeClient(daemon.address) as top_client:
            first = poll(top_client)
            second = poll(top_client)
        page = render_frame(second, first)
        assert "queue" in page and "job_latency" in page
        assert daemon.address in page
        out = io.StringIO()
        assert run_top(daemon.address, once=True, stream=out) == 0
        assert "latency" in out.getvalue()
        expo_out = io.StringIO()
        assert run_top(daemon.address, expo=True, stream=expo_out) == 0
        assert "repro_serve_requests" in expo_out.getvalue()

    def test_top_unreachable_daemon_exits_1(self, tmp_path):
        import io

        missing = tmp_path / "nope.sock"
        assert run_top_address_fails(f"unix:{missing}")


def run_top_address_fails(address):
    import io

    from repro.serve.top import run_top

    return run_top(address, once=True, stream=io.StringIO()) == 1


class TestServeLedgerTelemetry:
    def test_drain_record_carries_histograms_phases_spans(self, tmp_path):
        from repro.obs import span_tree_problems
        from repro.obs.ledger import validate_record

        socket_path = tmp_path / "tele.sock"
        ledger_path = tmp_path / "ledger.jsonl"
        daemon = start_background(ServeConfig(
            address=f"unix:{socket_path}", ledger=str(ledger_path)
        ))
        with ServeClient(daemon.address) as client:
            job_id = client.submit("plan", "System1")
            client.wait(job_id)
            client.shutdown()
        assert daemon.wait_finished(30)

        record = json.loads(ledger_path.read_text().splitlines()[0])
        validate_record(record)  # schema v3 with histograms
        # the registry is process-global: other tests' jobs may already
        # have observed latencies, so assert presence, not exact count
        assert record["histograms"]["serve.job_latency"]["count"] >= 1
        assert record["histograms"]["serve.queue_wait"]["count"] >= 1
        (summary,) = record["results"]["jobs"]
        assert summary["queue_wait_s"] >= 0
        assert {"validate", "queue_wait", "run"} <= set(summary["phases"])
        assert summary["spans"][0]["name"] == "serve.job"
        assert span_tree_problems(summary["spans"]) == []

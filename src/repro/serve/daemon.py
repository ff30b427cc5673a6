"""The ``repro serve`` daemon: a resident asyncio planning service.

One asyncio event loop accepts line-delimited JSON requests (TCP or
unix-domain socket, see :mod:`repro.serve.protocol`) and answers them
from warm state (:mod:`repro.serve.state`).  Jobs run on a single
dedicated worker thread, one batch at a time, so the event loop stays
responsive for ``status``/``cancel``/``submit`` while a plan computes
and job execution order is exactly the queue's priority order.

Lifecycle::

    daemon = ServeDaemon(ServeConfig(address="unix:/tmp/repro.sock"))
    daemon.run()          # blocks; SIGTERM/SIGINT drain gracefully

Graceful drain (SIGTERM, or the ``shutdown`` op): stop accepting
submissions, finish the running batch *and* everything already queued,
flush the session's completed-job record to the run ledger (when
``--ledger`` is set), exit 0.  A second
SIGTERM hard-drains: still-queued jobs are cancelled, the running batch
finishes at its next checkpoint, the flush still happens.

The ledger record is a ``repro-ledger`` ``kind="serve"`` document:
``samples`` holds every completed job's wall seconds, ``results`` the
per-job summaries and per-tenant totals, ``counters`` the full registry
snapshot -- so a serving session is a first-class, regressable entry in
the same performance history as benches and profiles.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.errors import ProtocolError
from repro.obs import METRICS
from repro.serve import jobs as jobmod
from repro.serve import protocol
from repro.serve.jobs import Job, JobQueue, QueueDraining, QueueFull
from repro.serve.state import WarmState, run_batch

logger = logging.getLogger("repro.serve.daemon")

_CONNECTIONS = METRICS.counter("serve.connections")
_REQUESTS = METRICS.counter("serve.requests")
_ERRORS = METRICS.counter("serve.requests.errors")

#: job descriptors returned by the ``jobs`` op (newest last)
JOBS_LISTING_LIMIT = 200


@dataclass
class ServeConfig:
    """Daemon settings (the CLI maps its flags straight onto this)."""

    address: str = "127.0.0.1:7457"
    ledger: Optional[str] = None
    max_queue: int = 256
    #: series key of the session's ledger record
    bench: str = "serve-session"
    #: file the bound address is written to once listening (lets
    #: scripts use ephemeral ports / wait for readiness)
    address_file: Optional[str] = None
    #: seconds to let in-flight responses flush after the drain
    drain_grace_s: float = 2.0


class ServeDaemon:
    """The resident planning service (one instance per process)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.state = WarmState()
        self.queue = JobQueue(self.config.max_queue)
        self.jobs: Dict[str, Job] = {}
        self.address: Optional[str] = None
        self._seq = 0
        self._run_seq = 0
        self._started_monotonic = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-worker"
        )
        self._active_requests = 0
        self._drain_requested = False
        self._hard_drain = False
        self._ready = threading.Event()
        self._finished = threading.Event()

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until drained (blocking).  Returns the exit status."""
        try:
            asyncio.run(self._serve())
        finally:
            self._finished.set()
        return 0

    def request_drain(self, hard: bool = False) -> None:
        """Thread-safe drain trigger (signal handlers, test helpers)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._begin_drain, hard)

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        return self._ready.wait(timeout)

    def wait_finished(self, timeout: Optional[float] = None) -> bool:
        return self._finished.wait(timeout)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._install_signal_handlers()
        kind, value = protocol.parse_address(self.config.address)
        # the stream limit sits just above MAX_LINE_BYTES so oversized
        # requests are read far enough to be answered with an error
        # envelope; anything beyond the limit drops the connection
        limit = protocol.MAX_LINE_BYTES + 1024
        if kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=value, limit=limit
            )
            self.address = protocol.format_address("unix", value)
        else:
            host, port = value
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port, limit=limit
            )
            bound = self._server.sockets[0].getsockname()
            self.address = protocol.format_address("tcp", (bound[0], bound[1]))
        if self.config.address_file:
            with open(self.config.address_file, "w") as handle:
                handle.write(self.address + "\n")
        logger.info("repro-serve/%d listening on %s", protocol.PROTOCOL_VERSION, self.address)
        self._ready.set()
        try:
            await self._dispatch_loop()
            await self._let_responses_flush()
        finally:
            self._flush_ledger()
            self._server.close()
            await self._server.wait_closed()
            self._worker.shutdown(wait=True)
            logger.info("repro-serve drained; exiting")

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # in-process test/bench daemons drain via the shutdown op
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._on_signal)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    def _on_signal(self) -> None:
        self._begin_drain(hard=self._drain_requested)

    def _begin_drain(self, hard: bool = False) -> None:
        if hard and self._drain_requested:
            if not self._hard_drain:
                logger.warning("hard drain: cancelling queued jobs")
                self._hard_drain = True
                self.queue.cancel_pending()
            return
        if not self._drain_requested:
            logger.info("drain requested: finishing queued jobs, then exiting")
            self._drain_requested = True
            self.queue.start_drain()
        elif hard:
            self._hard_drain = True
            self.queue.cancel_pending()

    async def _let_responses_flush(self) -> None:
        """Give connection handlers a moment to send final responses."""
        deadline = time.monotonic() + self.config.drain_grace_s
        while self._active_requests and time.monotonic() < deadline:
            await asyncio.sleep(0.02)

    # ------------------------------------------------------------------
    # dispatching
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            job = await self.queue.next_job()
            if job is None:
                return
            coalesce_start = time.monotonic()
            batch = [job] + self.queue.coalesce_sweeps(job)
            coalesce_end = time.monotonic()
            self._run_seq += 1
            run_seq = self._run_seq
            for entry in batch:
                entry.add_phase(
                    "coalesce", coalesce_start, coalesce_end, batch=len(batch)
                )
                entry.mark_running(run_seq)
            outcomes = await self._loop.run_in_executor(
                self._worker, run_batch, self.state, batch
            )
            for entry, (state, result, error) in outcomes:
                entry.finish(state, result=result, error=error)

    def _submit(self, spec: Dict[str, Any]) -> Job:
        if spec["system"] is not None and spec["system"] not in self.state.known_systems():
            raise ProtocolError(
                f"unknown system {spec['system']!r}; "
                f"choose from {self.state.known_systems()}",
                code="unknown-system",
            )
        self._seq += 1
        job = Job(
            id=f"j{self._seq:04d}",
            seq=self._seq,
            type=spec["type"],
            system=spec["system"],
            params=spec["params"],
            priority=spec["priority"],
            timeout_s=spec["timeout_s"],
            tenant=spec["tenant"],
        )
        self.queue.submit(job)
        self.jobs[job.id] = job
        return job

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        _CONNECTIONS.inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError, asyncio.LimitOverrunError):
                    break  # reset, or a line beyond the stream limit
                if not line:
                    break
                self._active_requests += 1
                try:
                    response = await self._dispatch_request(line)
                finally:
                    self._active_requests -= 1
                writer.write(protocol.encode(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            # the loop is exiting (drain finished with this client still
            # connected): end the connection quietly, not as a task error
            pass
        finally:
            writer.close()

    async def _dispatch_request(self, line: bytes) -> Dict[str, Any]:
        _REQUESTS.inc()
        try:
            envelope = protocol.decode_request(line)
            handler = getattr(self, f"_op_{envelope['op']}")
            return await handler(envelope)
        except ProtocolError as error:
            _ERRORS.inc()
            return protocol.response_error(error.code, str(error))
        except Exception as error:  # never tear a connection down on a bug
            _ERRORS.inc()
            logger.exception("request failed")
            return protocol.response_error(
                "internal", f"{type(error).__name__}: {error}"
            )

    def _job_or_raise(self, envelope: Dict[str, Any]) -> Job:
        job_id = envelope.get("id")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}", code="unknown-job")
        return job

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def _op_ping(self, _envelope) -> Dict[str, Any]:
        return protocol.response_ok(
            "ping",
            server=f"repro-serve/{protocol.PROTOCOL_VERSION}",
            version=__version__,
            uptime_s=time.monotonic() - self._started_monotonic,
            address=self.address,
            draining=self._drain_requested,
        )

    async def _op_submit(self, envelope) -> Dict[str, Any]:
        validate_start = time.monotonic()
        spec = protocol.validate_job_spec(envelope.get("job"))
        try:
            job = self._submit(spec)
        except QueueFull as error:
            raise ProtocolError(str(error), code="queue-full")
        except QueueDraining as error:
            raise ProtocolError(str(error), code="draining")
        # the job exists only after validation passed, so the phase is
        # attached retroactively (its start predates the submit stamp)
        job.add_phase("validate", validate_start, time.monotonic())
        return protocol.response_ok("submit", id=job.id, state=job.state)

    async def _op_status(self, envelope) -> Dict[str, Any]:
        job = self._job_or_raise(envelope)
        return protocol.response_ok("status", job=job.descriptor())

    async def _op_result(self, envelope) -> Dict[str, Any]:
        job = self._job_or_raise(envelope)
        if not job.terminal:
            raise ProtocolError(
                f"job {job.id} is {job.state}; use 'wait'", code="not-done"
            )
        return protocol.response_ok(
            "result",
            job=job.descriptor(),
            result=job.result,
            spans=job.span_tree(),
        )

    async def _op_wait(self, envelope) -> Dict[str, Any]:
        job = self._job_or_raise(envelope)
        timeout = envelope.get("timeout_s")
        if not job.terminal:
            try:
                await asyncio.wait_for(
                    job.done_event.wait(),
                    timeout=float(timeout) if timeout is not None else None,
                )
            except asyncio.TimeoutError:
                return protocol.response_ok("wait", job=job.descriptor(), result=None)
        return protocol.response_ok(
            "wait",
            job=job.descriptor(),
            result=job.result,
            spans=job.span_tree(),
        )

    async def _op_cancel(self, envelope) -> Dict[str, Any]:
        job = self._job_or_raise(envelope)
        if job.state == jobmod.QUEUED:
            job.finish(jobmod.CANCELLED, error="cancelled while queued")
        elif job.state == jobmod.RUNNING:
            job.cancel_flag.set()  # honored at the next checkpoint
        return protocol.response_ok("cancel", job=job.descriptor())

    async def _op_jobs(self, _envelope) -> Dict[str, Any]:
        listing = [
            job.descriptor()
            for job in list(self.jobs.values())[-JOBS_LISTING_LIMIT:]
        ]
        return protocol.response_ok("jobs", jobs=listing)

    async def _op_stats(self, _envelope) -> Dict[str, Any]:
        tenants: Dict[str, Dict[str, int]] = {}
        for name, value in METRICS.counters("serve.tenant.").items():
            tenant, _, event = name[len("serve.tenant."):].rpartition(".")
            tenants.setdefault(tenant, {})[event] = int(value)
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return protocol.response_ok(
            "stats",
            stats={
                "address": self.address,
                "uptime_s": time.monotonic() - self._started_monotonic,
                "queue_depth": len(self.queue),
                "draining": self._drain_requested,
                "jobs_total": len(self.jobs),
                "states": states,
                "tenants": tenants,
                "result_cache": self.state.result_cache_stats(),
                "batch": {
                    "batches": int(METRICS.counter("serve.batch.batches").value),
                    "coalesced": int(METRICS.counter("serve.batch.coalesced").value),
                    "points_deduped": int(
                        METRICS.counter("serve.batch.points_deduped").value
                    ),
                },
                "latency": {
                    "queue_wait": METRICS.histogram("serve.queue_wait").summary(),
                    "job_latency": METRICS.histogram("serve.job_latency").summary(),
                },
            },
        )

    async def _op_metrics(self, _envelope) -> Dict[str, Any]:
        """Prometheus-style text exposition of the live registry."""
        from repro.obs.expo import render_exposition

        return protocol.response_ok(
            "metrics",
            exposition=render_exposition(METRICS.snapshot()),
            content_type="text/plain; version=0.0.4",
        )

    async def _op_shutdown(self, envelope) -> Dict[str, Any]:
        self._begin_drain(hard=bool(envelope.get("hard", False)))
        return protocol.response_ok("shutdown", draining=True)

    # ------------------------------------------------------------------
    # ledger flush
    # ------------------------------------------------------------------
    def _flush_ledger(self) -> None:
        """Append the session's completed-job record (drain path)."""
        if not self.config.ledger:
            return
        finished = [job for job in self.jobs.values() if job.wall_s is not None]
        if not finished:
            return
        from repro.obs.ledger import RunLedger, make_record

        summaries: List[Dict[str, Any]] = [
            {
                "id": job.id,
                "type": job.type,
                "system": job.system,
                "tenant": job.tenant,
                "state": job.state,
                "wall_s": job.wall_s,
                "queue_wait_s": job.queue_wait_s,
                "phases": job.phase_durations(),
                "spans": job.span_tree(),
            }
            for job in finished
        ]
        tenants: Dict[str, int] = {}
        for job in self.jobs.values():
            tenants[job.tenant] = tenants.get(job.tenant, 0) + 1
        record = make_record(
            bench=self.config.bench,
            samples=[job.wall_s for job in finished],
            kind="serve",
            histograms=METRICS.histograms(),
            results={
                "address": self.address,
                "jobs": summaries,
                "tenants": tenants,
                "drained": self._drain_requested,
                "hard_drain": self._hard_drain,
            },
        )
        RunLedger(self.config.ledger).append(record)
        logger.info(
            "flushed %d job samples to %s", len(finished), self.config.ledger
        )


# ----------------------------------------------------------------------
# embedding helper (tests, benchmarks)
# ----------------------------------------------------------------------
def start_background(config: ServeConfig, timeout: float = 10.0) -> ServeDaemon:
    """Run a daemon on a background thread; returns once it is listening.

    In-process daemons skip signal handlers (not the main thread); stop
    them with the ``shutdown`` op or :meth:`ServeDaemon.request_drain`,
    then :meth:`ServeDaemon.wait_finished`.
    """
    daemon = ServeDaemon(config)
    thread = threading.Thread(target=daemon.run, name="repro-serve", daemon=True)
    thread.start()
    if not daemon.wait_ready(timeout):
        raise RuntimeError(f"serve daemon failed to bind {config.address!r}")
    return daemon

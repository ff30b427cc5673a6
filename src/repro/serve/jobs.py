"""Job model and priority queue for the planning daemon.

A :class:`Job` moves through ``queued -> running -> `` one terminal
state (``done`` / ``failed`` / ``cancelled`` / ``timeout``).  All state
transitions happen on the daemon's event-loop thread; the only pieces
the worker thread touches are the cooperative cancellation flag and the
execution deadline, both read through :func:`checkpoint` between units
of work (sweep chunks, sleep steps).  A job that never reaches a
checkpoint runs to completion -- cancellation and timeouts are
cooperative by design, the daemon never kills a worker mid-plan.

:class:`JobQueue` orders runnable jobs by ``(-priority, seq)``: higher
priority first, FIFO within a priority.  Cancelled entries are removed
lazily on pop.  ``coalesce`` extracts every queued sweep job for the
same system so the dispatcher can fan their design-space points out in
one batch (see :mod:`repro.serve.state`).
"""

from __future__ import annotations

import asyncio
import heapq
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import METRICS
from repro.obs.tracer import new_span_id

# queue/lifecycle accounting (``serve.*`` counters are load- and
# timing-dependent, so the regression observatory exempts the prefix
# from the exact counter gate -- see ``GatePolicy.counter_ignore``)
_SUBMITTED = METRICS.counter("serve.jobs.submitted")
_COMPLETED = METRICS.counter("serve.jobs.completed")
_FAILED = METRICS.counter("serve.jobs.failed")
_CANCELLED = METRICS.counter("serve.jobs.cancelled")
_TIMEOUTS = METRICS.counter("serve.jobs.timeouts")
_REJECTED = METRICS.counter("serve.jobs.rejected")
_DEPTH = METRICS.gauge("serve.queue.depth")

# latency distributions derived from the job span tree; these feed the
# ``metrics`` op, the serve ledger record, and the p99 SLO gate
_QUEUE_WAIT = METRICS.histogram("serve.queue_wait")
_JOB_LATENCY = METRICS.histogram("serve.job_latency")

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"

TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED, TIMEOUT))


class JobCancelled(Exception):
    """Raised by :func:`checkpoint` when the job's cancel flag is set."""


class JobTimeout(Exception):
    """Raised by :func:`checkpoint` when the job's deadline passed."""


class QueueFull(Exception):
    """The queue is at capacity; the submission was rejected."""


class QueueDraining(Exception):
    """The daemon is draining; new submissions are rejected."""


@dataclass
class Job:
    """One submitted job and its full lifecycle record."""

    id: str
    seq: int
    type: str
    system: Optional[str]
    params: Dict[str, Any]
    priority: int = 0
    timeout_s: Optional[float] = None
    tenant: str = "default"

    state: str = QUEUED
    error: Optional[str] = None
    result: Any = None
    submitted_monotonic: float = field(default_factory=time.monotonic)
    started_monotonic: Optional[float] = None
    finished_monotonic: Optional[float] = None
    wall_s: Optional[float] = None
    #: order in which the dispatcher started jobs (priority evidence)
    run_seq: Optional[int] = None
    #: jobs served together with this one in a coalesced sweep batch
    batched_with: int = 0
    #: lifecycle phase records (validate / queue_wait / coalesce / run /
    #: serialize), appended by whichever thread measured each phase;
    #: :meth:`span_tree` turns them into Chrome-style span events
    phases: List[Dict[str, Any]] = field(default_factory=list, repr=False)

    # worker-side cooperation (the only fields touched off-loop)
    cancel_flag: threading.Event = field(default_factory=threading.Event, repr=False)
    deadline_monotonic: Optional[float] = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Seconds between submission and dispatch (``None`` until run)."""
        if self.started_monotonic is None:
            return None
        return self.started_monotonic - self.submitted_monotonic

    def descriptor(self) -> Dict[str, Any]:
        """The JSON-safe job summary sent over the wire (no result)."""
        return {
            "id": self.id,
            "type": self.type,
            "system": self.system,
            "tenant": self.tenant,
            "priority": self.priority,
            "timeout_s": self.timeout_s,
            "state": self.state,
            "error": self.error,
            "wall_s": self.wall_s,
            "queue_wait_s": self.queue_wait_s,
            "run_seq": self.run_seq,
            "batched_with": self.batched_with,
        }

    # ------------------------------------------------------------------
    # lifecycle phases / span tree
    # ------------------------------------------------------------------
    def add_phase(
        self, name: str, start_monotonic: float, end_monotonic: float, **args: Any
    ) -> None:
        """Record one lifecycle phase (append-only, any thread)."""
        self.phases.append(
            {
                "name": name,
                "start_monotonic": start_monotonic,
                "dur_s": max(0.0, end_monotonic - start_monotonic),
                "args": args,
            }
        )

    def phase_durations(self) -> Dict[str, float]:
        """Compact ``{phase: seconds}`` view for ledger/stats payloads."""
        durations: Dict[str, float] = {}
        for phase in self.phases:
            durations[phase["name"]] = (
                durations.get(phase["name"], 0.0) + phase["dur_s"]
            )
        return durations

    def span_tree(self) -> List[Dict[str, Any]]:
        """Chrome-style span events for this job: one ``serve.job`` root
        with every recorded phase nested under it.

        Timestamps are the daemon's monotonic clock in microseconds, so
        trees from different jobs of the same daemon line up on one
        timeline; ``tid`` is the job sequence number so each job renders
        as its own row.  Span ids are minted fresh per call from the
        process-wide allocator (never colliding with live tracer spans).
        """
        starts = [p["start_monotonic"] for p in self.phases]
        ends = [p["start_monotonic"] + p["dur_s"] for p in self.phases]
        root_start = min([self.submitted_monotonic] + starts)
        root_end = max(
            [self.finished_monotonic or self.submitted_monotonic] + ends
        )
        root_id = new_span_id()
        pid = os.getpid()
        events: List[Dict[str, Any]] = [
            {
                "name": "serve.job",
                "ph": "X",
                "ts": root_start * 1e6,
                "dur": (root_end - root_start) * 1e6,
                "pid": pid,
                "tid": self.seq,
                "cat": "serve",
                "args": {
                    "job": self.id,
                    "type": self.type,
                    "system": self.system,
                    "tenant": self.tenant,
                    "state": self.state,
                    "depth": 0,
                    "parent": None,
                    "span_id": root_id,
                    "parent_id": None,
                },
            }
        ]
        for phase in self.phases:
            events.append(
                {
                    "name": f"serve.job.{phase['name']}",
                    "ph": "X",
                    "ts": phase["start_monotonic"] * 1e6,
                    "dur": phase["dur_s"] * 1e6,
                    "pid": pid,
                    "tid": self.seq,
                    "cat": "serve",
                    "args": dict(
                        phase["args"],
                        job=self.id,
                        depth=1,
                        parent="serve.job",
                        span_id=new_span_id(),
                        parent_id=root_id,
                    ),
                }
            )
        return events

    # ------------------------------------------------------------------
    # loop-thread transitions
    # ------------------------------------------------------------------
    def mark_running(self, run_seq: int) -> None:
        self.state = RUNNING
        self.run_seq = run_seq
        self.started_monotonic = time.monotonic()
        if self.timeout_s is not None:
            self.deadline_monotonic = self.started_monotonic + self.timeout_s
        _QUEUE_WAIT.observe(self.queue_wait_s)
        self.add_phase(
            "queue_wait", self.submitted_monotonic, self.started_monotonic
        )

    def finish(self, state: str, result: Any = None, error: Optional[str] = None) -> None:
        self.state = state
        self.result = result
        self.error = error
        self.finished_monotonic = time.monotonic()
        if self.started_monotonic is not None:
            self.wall_s = self.finished_monotonic - self.started_monotonic
            _JOB_LATENCY.observe(
                self.finished_monotonic - self.submitted_monotonic
            )
        {
            DONE: _COMPLETED,
            FAILED: _FAILED,
            CANCELLED: _CANCELLED,
            TIMEOUT: _TIMEOUTS,
        }[state].inc()
        METRICS.counter(f"serve.tenant.{self.tenant}.{state}").inc()
        self.done_event.set()


def checkpoint(job: Job) -> None:
    """Cooperative cancellation/deadline check, called between units of
    work on the worker thread.  Raises :class:`JobCancelled` or
    :class:`JobTimeout`; the batch runner converts those into the
    matching terminal state."""
    if job.cancel_flag.is_set():
        raise JobCancelled(job.id)
    if job.deadline_monotonic is not None and time.monotonic() > job.deadline_monotonic:
        raise JobTimeout(job.id)


class JobQueue:
    """Single-consumer priority queue living on the event-loop thread."""

    def __init__(self, max_size: int = 256) -> None:
        self.max_size = max_size
        self._heap: List = []  # (-priority, seq, Job)
        self._wake = asyncio.Event()
        self.draining = False

    def __len__(self) -> int:
        return sum(1 for _, _, job in self._heap if job.state == QUEUED)

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Enqueue (loop thread only); raises when full or draining."""
        if self.draining:
            _REJECTED.inc()
            raise QueueDraining("daemon is draining; submission rejected")
        if len(self) >= self.max_size:
            _REJECTED.inc()
            raise QueueFull(f"job queue is full ({self.max_size} pending)")
        heapq.heappush(self._heap, (-job.priority, job.seq, job))
        _SUBMITTED.inc()
        METRICS.counter(f"serve.tenant.{job.tenant}.submitted").inc()
        _DEPTH.set(len(self))
        self._wake.set()

    def start_drain(self) -> None:
        """Refuse new submissions; queued jobs still run to completion."""
        self.draining = True
        self._wake.set()

    def cancel_pending(self) -> int:
        """Hard drain: cancel every still-queued job (loop thread)."""
        cancelled = 0
        for _, _, job in self._heap:
            if job.state == QUEUED:
                job.finish(CANCELLED, error="cancelled: daemon hard drain")
                cancelled += 1
        self._heap.clear()
        _DEPTH.set(0)
        self._wake.set()
        return cancelled

    # ------------------------------------------------------------------
    async def next_job(self) -> Optional[Job]:
        """The highest-priority runnable job; ``None`` once draining and
        empty (the dispatcher's stop signal)."""
        while True:
            job = self._pop_runnable()
            if job is not None:
                _DEPTH.set(len(self))
                return job
            if self.draining:
                return None
            self._wake.clear()
            await self._wake.wait()

    def _pop_runnable(self) -> Optional[Job]:
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state == QUEUED:
                return job
        return None

    def coalesce_sweeps(self, job: Job) -> List[Job]:
        """Extract every queued sweep job on ``job``'s system.

        Called right after ``job`` (itself a sweep) is popped: the
        returned jobs ride in the same batch -- their design-space
        points are unioned and planned once -- ordered by
        ``(-priority, seq)`` like the queue itself.
        """
        if job.type != "sweep":
            return []
        matching = [
            entry
            for entry in self._heap
            if entry[2].state == QUEUED
            and entry[2].type == "sweep"
            and entry[2].system == job.system
        ]
        if not matching:
            return []
        keep = [
            entry
            for entry in self._heap
            if not (
                entry[2].state == QUEUED
                and entry[2].type == "sweep"
                and entry[2].system == job.system
            )
        ]
        self._heap = keep
        heapq.heapify(self._heap)
        _DEPTH.set(len(self))
        return [entry[2] for entry in sorted(matching)]

"""Resident warm state and job execution for the planning daemon.

This is what makes ``repro serve`` more than a CLI loop: everything
expensive stays warm across requests, in one process:

* **SOCs** -- a system is built (HSCAN insertion + transparency version
  synthesis) once, on its first request, then reused; the incremental
  plan cache (:mod:`repro.exec.cache`) attached to it keeps warming up
  with every plan/sweep that touches it;
* **results** -- ``plan`` / ``sweep`` / ``lint`` jobs are pure
  functions of ``(system, params)``, so their JSON results are
  memoized; a warm repeat request never re-plans at all
  (``serve.results.hits``).

Batched sweeps: the dispatcher hands :func:`run_batch` every queued
sweep job for one system at once.  The runner unions the design-space
points the uncached jobs need (full product order first, then extra
explicit selections in arrival order), plans each once, and scatters
each job its own result -- bit-identical to what a one-shot ``repro
sweep`` computes, because it is the same planner in the same order.

All functions here run on the daemon's single worker thread; between
points they poll each batched job's cooperative cancellation flag and
deadline (see :func:`repro.serve.jobs.checkpoint`).
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import METRICS, profile_section
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    TIMEOUT,
    Job,
    JobCancelled,
    JobTimeout,
    checkpoint,
)
from repro.serve.protocol import canonical_params_key

_SOC_BUILDS = METRICS.counter("serve.socs.builds")
_SOC_REUSES = METRICS.counter("serve.socs.reuses")
_RESULT_HITS = METRICS.counter("serve.results.hits")
_RESULT_MISSES = METRICS.counter("serve.results.misses")
_BATCHES = METRICS.counter("serve.batch.batches")
_BATCH_COALESCED = METRICS.counter("serve.batch.coalesced")
_BATCH_POINTS = METRICS.counter("serve.batch.points")
_BATCH_DEDUPED = METRICS.counter("serve.batch.points_deduped")

#: job types whose results are pure functions of (system, params)
CACHEABLE_TYPES = frozenset(("plan", "sweep", "lint"))

#: one batch-runner outcome: (state, result, error message)
Outcome = Tuple[str, Any, Optional[str]]


class WarmState:
    """The daemon's resident cross-request state (worker-thread owned)."""

    def __init__(self) -> None:
        from repro.designs import system_builders

        self._builders = system_builders()
        self._socs: Dict[str, Any] = {}
        self._results: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def known_systems(self) -> List[str]:
        return sorted(self._builders)

    def soc(self, system: str):
        """The warm SOC for ``system`` (built on first use)."""
        soc = self._socs.get(system)
        if soc is not None:
            _SOC_REUSES.inc()
            return soc
        with profile_section("serve.soc_build", system=system):
            soc = self._builders[system]()
        self._socs[system] = soc
        _SOC_BUILDS.inc()
        return soc

    # ------------------------------------------------------------------
    def cached_result(self, job: Job) -> Optional[Any]:
        if job.type not in CACHEABLE_TYPES:
            return None
        key = canonical_params_key(job.type, job.system, job.params)
        result = self._results.get(key)
        if result is not None:
            _RESULT_HITS.inc()
        return result

    def store_result(self, job: Job, result: Any) -> None:
        if job.type in CACHEABLE_TYPES:
            key = canonical_params_key(job.type, job.system, job.params)
            self._results[key] = result
            _RESULT_MISSES.inc()

    def result_cache_stats(self) -> Dict[str, int]:
        return {
            "size": len(self._results),
            "hits": int(_RESULT_HITS.value),
            "misses": int(_RESULT_MISSES.value),
        }


# ----------------------------------------------------------------------
# selections
# ----------------------------------------------------------------------
def selection_from_params(soc, select: Optional[Dict]) -> Optional[Dict[str, int]]:
    """A wire selection (1-based versions) as a planner selection.

    Raises ``ValueError`` on unknown cores or out-of-range versions --
    the batch runner reports that as a *failed job*.
    """
    if not select:
        return None
    selection = {core.name: 0 for core in soc.testable_cores()}
    for core_name, version in select.items():
        if core_name not in selection:
            raise ValueError(f"unknown core {core_name!r} in selection")
        if not isinstance(version, int) or isinstance(version, bool):
            raise ValueError(f"version for {core_name!r} must be an integer")
        count = soc.cores[core_name].version_count
        if not 1 <= version <= count:
            raise ValueError(f"{core_name} has versions 1..{count}, got {version}")
        selection[core_name] = version - 1
    return selection


# ----------------------------------------------------------------------
# the batch runner (worker thread)
# ----------------------------------------------------------------------
def run_batch(state: WarmState, batch: List[Job]) -> List[Tuple[Job, Outcome]]:
    """Execute one dispatched batch; returns per-job outcomes.

    A batch is either several coalesced sweep jobs on one system or a
    single job of any type.  Exceptions never escape: every job ends in
    exactly one outcome.
    """
    if len(batch) > 1 or batch[0].type == "sweep":
        return _run_sweep_batch(state, batch)
    job = batch[0]
    run_start = time.monotonic()
    try:
        checkpoint(job)
        cached = state.cached_result(job)
        if cached is not None:
            job.add_phase("run", run_start, time.monotonic(), cached=True)
            return [(job, (DONE, cached, None))]
        with profile_section("serve.job", type=job.type, system=job.system or "-"):
            result = _HANDLERS[job.type](state, job)
        run_end = time.monotonic()
        job.add_phase("run", run_start, run_end)
        state.store_result(job, result)
        job.add_phase("serialize", run_end, time.monotonic())
        return [(job, (DONE, result, None))]
    except JobCancelled:
        job.add_phase("run", run_start, time.monotonic(), outcome=CANCELLED)
        return [(job, (CANCELLED, None, "cancelled"))]
    except JobTimeout:
        job.add_phase("run", run_start, time.monotonic(), outcome=TIMEOUT)
        return [(job, (TIMEOUT, None, f"timed out after {job.timeout_s}s"))]
    except Exception as error:  # a failed job must not kill the daemon
        job.add_phase("run", run_start, time.monotonic(), outcome=FAILED)
        return [(job, (FAILED, None, f"{type(error).__name__}: {error}"))]


def _run_sweep_batch(state: WarmState, batch: List[Job]) -> List[Tuple[Job, Outcome]]:
    _BATCHES.inc()
    _BATCH_COALESCED.inc(len(batch) - 1)
    for job in batch[1:]:
        job.batched_with = len(batch) - 1
    batch[0].batched_with = len(batch) - 1

    outcomes: List[Tuple[Job, Outcome]] = []
    alive: List[Job] = []
    cache_start = time.monotonic()
    for job in batch:
        cached = state.cached_result(job)
        if cached is not None:
            job.add_phase("run", cache_start, time.monotonic(), cached=True)
            outcomes.append((job, (DONE, cached, None)))
        else:
            alive.append(job)
    if not alive:
        return outcomes

    system = alive[0].system
    try:
        soc = state.soc(system)
        cores = soc.testable_cores()
        core_names = [core.name for core in cores]
        combos, per_job_combos, failures = _needed_combos(soc, core_names, alive)
        for job, message in failures:
            outcomes.append((job, (FAILED, None, message)))
            alive.remove(job)
        if not alive:
            return outcomes
        run_start = time.monotonic()
        with profile_section("serve.batch", system=system, jobs=len(alive)):
            plans, dead = _plan_combos(soc, core_names, combos, alive)
        run_end = time.monotonic()
        for job, outcome in dead:
            job.add_phase("run", run_start, run_end, outcome=outcome[0])
            outcomes.append((job, outcome))
            alive.remove(job)
        for job in alive:
            job.add_phase("run", run_start, run_end, points=len(combos))
            serialize_start = time.monotonic()
            result = _sweep_result(
                soc, core_names, combos, plans, per_job_combos.get(job.id)
            )
            state.store_result(job, result)
            job.add_phase("serialize", serialize_start, time.monotonic())
            outcomes.append((job, (DONE, result, None)))
    except Exception as error:
        for job in alive:
            outcomes.append((job, (FAILED, None, f"{type(error).__name__}: {error}")))
    return outcomes


def _needed_combos(soc, core_names: List[str], jobs: List[Job]):
    """The union of version combos the batch must plan.

    Full-sweep jobs need the whole product space (kept in product order
    so result indexing matches :func:`repro.soc.optimizer.design_space`
    exactly); explicit ``selections`` add their combos in job order.
    Returns ``(combos, per_job_combos, failures)`` where
    ``per_job_combos`` maps a *partial* job's id to its combo list.
    """
    full = list(
        itertools.product(*[range(soc.cores[name].version_count) for name in core_names])
    )
    requested = 0
    combos: List[Tuple[int, ...]] = []
    seen = set()
    if any(not job.params.get("selections") for job in jobs):
        combos = list(full)
        seen = set(full)
        requested += len(full)
    per_job_combos: Dict[str, List[Tuple[int, ...]]] = {}
    failures: List[Tuple[Job, str]] = []
    for job in jobs:
        selections = job.params.get("selections")
        if not selections:
            continue
        job_combos: List[Tuple[int, ...]] = []
        try:
            for select in selections:
                selection = selection_from_params(soc, select) or {}
                job_combos.append(tuple(selection[name] for name in core_names))
        except (ValueError, TypeError) as error:
            failures.append((job, str(error)))
            continue
        per_job_combos[job.id] = job_combos
        requested += len(job_combos)
        for combo in job_combos:
            if combo not in seen:
                seen.add(combo)
                combos.append(combo)
    _BATCH_POINTS.inc(len(combos))
    _BATCH_DEDUPED.inc(requested - len(combos))
    return combos, per_job_combos, failures


def _plan_combos(soc, core_names, combos, jobs: List[Job]):
    """Plan every combo on the warm SOC, checkpointing each batched job
    before every point."""
    from repro.soc.plan import plan_soc_test

    dead: List[Tuple[Job, Outcome]] = []

    def poll() -> List[Job]:
        still = []
        for job in jobs:
            if any(entry[0] is job for entry in dead):
                continue
            try:
                checkpoint(job)
                still.append(job)
            except JobCancelled:
                dead.append((job, (CANCELLED, None, "cancelled")))
            except JobTimeout:
                dead.append((job, (TIMEOUT, None, f"timed out after {job.timeout_s}s")))
        return still

    plan_by_combo: Dict[Tuple[int, ...], Any] = {}
    for combo in combos:
        if not poll():
            break
        plan_by_combo[combo] = plan_soc_test(soc, dict(zip(core_names, combo)))
    return plan_by_combo, dead


def _sweep_result(soc, core_names, combos, plans, job_combos) -> Dict[str, Any]:
    """One job's sweep payload from the batch's shared plans.

    Full sweeps reproduce ``design_space`` exactly: points in product
    order, sorted by ``(chip_cells, tat)``, indexed from 1.  Partial
    sweeps return points in request order.
    """
    if job_combos is None:
        points = [_point_dict(core_names, combo, plans[combo]) for combo in combos]
        points.sort(key=lambda p: (p["chip_cells"], p["tat"]))
        for index, point in enumerate(points):
            point["index"] = index + 1
        return {"system": soc.name, "partial": False, "points": points}
    points = []
    for index, combo in enumerate(job_combos):
        point = _point_dict(core_names, combo, plans[combo])
        point["index"] = index + 1
        points.append(point)
    return {"system": soc.name, "partial": True, "points": points}


def _point_dict(core_names, combo, plan) -> Dict[str, Any]:
    selection = dict(zip(core_names, combo))
    label = ", ".join(f"{core}=V{v + 1}" for core, v in sorted(selection.items()))
    return {
        "index": 0,
        "selection": {core: v + 1 for core, v in selection.items()},
        "tat": plan.total_tat,
        "chip_cells": plan.chip_dft_cells,
        "label": label,
    }


# ----------------------------------------------------------------------
# single-job handlers
# ----------------------------------------------------------------------
def _run_plan(state: WarmState, job: Job) -> Dict[str, Any]:
    from repro.flow.export import plan_to_dict
    from repro.soc import plan_soc_test

    soc = state.soc(job.system)
    selection = selection_from_params(soc, job.params.get("select"))
    plan = plan_soc_test(soc, selection)
    return plan_to_dict(plan)


def _run_lint(state: WarmState, job: Job) -> Dict[str, Any]:
    from repro.lint import Severity, lint_soc

    fail_on = Severity.parse(str(job.params.get("fail_on", "error")))
    report = lint_soc(state.soc(job.system))
    return {
        "report": json.loads(report.to_json()),
        "exit": 1 if report.has_at_least(fail_on) else 0,
    }


def _run_profile(state: WarmState, job: Job) -> Dict[str, Any]:
    """A profile measurement (never cached; resets non-serve counters).

    ``profile_system`` zeroes the shared registry so the breakdown
    describes exactly one pipeline run; the daemon's own ``serve.*``
    tallies (tenant counters included) are snapshotted and restored so
    serving accounting survives the reset.
    """
    from repro.flow.profile import QUICK_MAX_FAULTS, profile_system

    quick = bool(job.params.get("quick", True))
    seed = int(job.params.get("seed", 0))
    serve_counters = {
        name: value
        for name, value in METRICS.counters().items()
        if name.startswith("serve.")
    }
    report = profile_system(
        job.system,
        seed=seed,
        max_faults=QUICK_MAX_FAULTS if quick else None,
    )
    for name, value in serve_counters.items():
        METRICS.counter(name).inc(value)
    return {
        "system": job.system,
        "seed": seed,
        "quick": quick,
        "total_seconds": report.total_seconds,
        "summary": dict(report.summary),
    }


def _run_explain(state: WarmState, job: Job) -> Dict[str, Any]:
    """A search-effort attribution run (never cached -- a measurement).

    Same counter discipline as :func:`_run_profile`: ``explain_system``
    resets the shared registry, so the daemon's ``serve.*`` tallies are
    snapshotted and restored around it.  The result carries the full
    byte-stable ``repro-attrib`` artifact.
    """
    from repro.flow.explain import explain_system
    from repro.flow.profile import QUICK_MAX_FAULTS

    quick = bool(job.params.get("quick", True))
    seed = int(job.params.get("seed", 0))
    top_k = int(job.params.get("top_k", 10))
    serve_counters = {
        name: value
        for name, value in METRICS.counters().items()
        if name.startswith("serve.")
    }
    report = explain_system(
        job.system,
        seed=seed,
        max_faults=QUICK_MAX_FAULTS if quick else None,
        top_k=top_k,
    )
    for name, value in serve_counters.items():
        METRICS.counter(name).inc(value)
    return {
        "system": job.system,
        "seed": seed,
        "quick": quick,
        "total_seconds": report.total_seconds,
        "artifact": report.artifact,
    }


def _run_sleep(_state: WarmState, job: Job) -> Dict[str, Any]:
    """Diagnostic job: hold the runner, checkpointing every step."""
    seconds = float(job.params.get("seconds", 0.1))
    steps = max(1, int(job.params.get("steps", 10)))
    for _ in range(steps):
        checkpoint(job)
        time.sleep(max(0.0, seconds) / steps)
    checkpoint(job)
    return {"slept_s": seconds, "steps": steps}


_HANDLERS = {
    "plan": _run_plan,
    "lint": _run_lint,
    "profile": _run_profile,
    "explain": _run_explain,
    "sleep": _run_sleep,
}

"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` in a fresh interpreter with the program's ``src``
on ``PYTHONPATH``.  It prints ``ready <monotonic clock>`` as soon as
set-up is done (the parent times set-up from starting the interpreter
to that stamp), then ``calibration <factor>`` that scales this
interpreter's times to the reference speed (see ``calibrate.py``).
Then it builds the workload's inputs and references, measures, and
prints one JSON result line.  ``--setup-only`` stops after the
calibration line.

Untraced (``--trace 0``): rounds run until ``--seconds`` have passed
and the workload's minimum operation count is met.  Traced
(``--trace 1``): the same work runs untraced and traced, from the same
state -- operation by operation where the workload allows it
(``interleave``), else as two passes.  The difference is the tracing
overhead; the traced run gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from calibrate import Calibrator
from spans import SpanRecorder, layer_table, wrapped_entry_points
from workloads import ATPG_CORES, WORKLOADS

HERE = Path(__file__).resolve().parent

#: calibration samples that scale this interpreter's set-up time
SETUP_CALIBRATION_SAMPLES = 5
#: counters reported per layer (deltas over the traced pass's program calls)
PASS_COUNTERS = (
    "atpg.podem.calls",
    "atpg.podem.decisions",
    "atpg.podem.backtracks",
    "atpg.podem.aborts",
    "atpg.podem.redundant",
    "atpg.podem.detected",
    "atpg.random.detected",
    "atpg.patterns",
    "faultsim.sequential.faults",
    "faultsim.batches",
    "faultsim.events",
    "faultsim.faults.dropped",
    "faultsim.cone.builds",
    "faultsim.cone.reuses",
    "kernel.compiles",
    "kernel.cache.reuses",
    "kernel.words_evaluated",
    "chiplevel.plans",
    "chiplevel.resource.reservations",
    "chiplevel.mux.fallbacks",
    "exec.cache.hits",
    "exec.cache.misses",
    "optimizer.moves.accepted",
    "optimizer.moves.rejected",
    "schedule.reservation.waits",
    "schedule.reservation.retries",
)
#: counters reported as deltas over set-up
SETUP_COUNTERS = ("transparency.search.expansions", "corelevel.hscan.insertions")
#: metric -> span name whose self time (s) it reports
SETUP_SPANS = {
    "import.s": "import",
    "designs.build_s": "designs.build",
    "elaborate.s": "elaborate",
    "faults.collapse_s": "faults.collapse",
    "flow.flatten_s": "flow.flatten",
}
#: metric -> span name whose self time (s) over the traced pass it reports
PASS_SPANS = {
    "atpg.podem.self_s": "atpg.podem",
    "atpg.compact.self_s": "atpg.compact",
    "faults.sim.self_s": "faults.sim",
    "faults.seq_grade_s": "faults.seq_grade",
}
#: metric -> span name whose mean duration (ms) per call it reports
MEAN_MS_SPANS = {
    "soc.sweep_cold_ms": "soc.sweep_cold",
    "soc.sweep_warm_ms": "soc.sweep_warm",
    "soc.optimize_ms": "soc.optimize",
    "schedule.ms": "schedule",
    "analysis.certify_ms": "analysis.certify",
    "lint.soc_ms": "lint.soc",
}
#: metric -> (numerator, denominator terms) of a ratio
RATIOS = {
    "atpg.podem.abort_ratio": ("atpg.podem.aborts", ("atpg.podem.calls",)),
    "atpg.podem.backtracks_per_call": ("atpg.podem.backtracks", ("atpg.podem.calls",)),
    "faultsim.cone.reuse_ratio": (
        "faultsim.cone.reuses",
        ("faultsim.cone.builds", "faultsim.cone.reuses"),
    ),
    "exec.cache.hit_ratio": ("exec.cache.hits", ("exec.cache.hits", "exec.cache.misses")),
    "optimizer.accept_ratio": (
        "optimizer.moves.accepted",
        ("optimizer.moves.accepted", "optimizer.moves.rejected"),
    ),
}


class Tally:
    """Operation latencies, counter deltas and failures of one pass."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.latencies: List[float] = []
        self.kinds: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.failures: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_op(op, rec: SpanRecorder, tally: Tally, traced: bool) -> None:
    """Time one operation and check its output."""
    from repro.obs import METRICS

    mark = METRICS.mark() if traced else None
    error = None
    start = time.perf_counter()
    try:
        if traced:
            with rec.window():
                output = op.call(rec)
        else:
            output = op.call(rec)
    except Exception as exc:  # a failed operation is counted, not fatal
        output, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if mark is not None:
        for name, value in METRICS.delta_since(mark)["counters"].items():
            tally.counters[name] = tally.counters.get(name, 0) + value
    if error is None:
        error = op.check(output)
    tally.starts.append(start)
    tally.latencies.append(elapsed)
    tally.kinds[op.kind] = tally.kinds.get(op.kind, 0) + 1
    if error is not None:
        tally.failures.append(error)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class PeakRss:
    """Peak resident set from :meth:`reset` on.

    Linux lets a process reset its high-water mark (``VmHWM``) to its
    current resident set through ``/proc/self/clear_refs``, so the peak
    covers the measured operations and not the benchmark's reference
    work before them.  Where that is refused, the peak covers the whole
    interpreter (``scope`` says which).
    """

    def __init__(self) -> None:
        self.scope = "process"

    def reset(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
            self.scope = "measured"
        except OSError:
            self.scope = "process"

    def mb(self) -> float:
        if self.scope == "measured":
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fidelity_summary(fidelity) -> Dict[str, float]:
    if not fidelity:
        return {}
    total = sum(f[0] for f in fidelity.values())
    detected = sum(f[1] for f in fidelity.values())
    redundant = sum(f[2] for f in fidelity.values())
    return {
        "teff_pct": 100.0 * (detected + redundant) / total,
        "fc_pct": 100.0 * detected / total,
        "patterns": sum(f[4] for f in fidelity.values()),
    }


def untraced_metrics(
    workload, seconds: float, calibration: Calibrator, peak: PeakRss
) -> Tuple[List[Tally], dict, dict]:
    """Rounds until ``seconds`` have passed; times scaled to reference speed."""
    rec = SpanRecorder()
    tally = Tally()
    rounds: List[range] = []
    start = time.perf_counter()
    while True:
        first = tally.attempted
        for op in workload.round(len(rounds)):
            calibration.maybe_sample()
            run_op(op, rec, tally, traced=False)
        rounds.append(range(first, tally.attempted))
        if time.perf_counter() - start >= seconds and tally.attempted >= workload.min_ops:
            break
    calibration.sample()
    scaled = [
        latency * calibration.scale(begin, begin + latency)
        for begin, latency in zip(tally.starts, tally.latencies)
    ]
    metrics = {
        "peak_rss_mb": (peak.mb(), "MB"),
        "round_s": (statistics.median(sum(scaled[i] for i in r) for r in rounds), "s"),
        "op_ms_p99": (1e3 * percentile(scaled, 0.99), "ms"),
    }
    info = {
        # the median of a mixed workload's latencies can sit in a gap between
        # request kinds and jump across it, so it is reported but not gated
        "op_ms_p50": 1e3 * statistics.median(scaled),
        "host_speed": calibration.overall_scale(),
        "peak_rss_scope": peak.scope,
        "raw_round_s": [sum(tally.latencies[i] for i in r) for r in rounds],
        "raw_op_ms_p50": 1e3 * statistics.median(tally.latencies),
        "raw_op_ms_p99": 1e3 * percentile(tally.latencies, 0.99),
        "ops_per_s": tally.attempted / sum(tally.latencies),
        "mix": tally.kinds,
        **fidelity_summary(workload.fidelity()),
    }
    return [tally], metrics, info


def traced_metrics(
    workload, setup: SpanRecorder, setup_counters: Dict[str, int], trace_file: Path
) -> Tuple[List[Tally], dict, dict]:
    rec = SpanRecorder()
    untraced, traced = Tally(), Tally()
    if workload.interleave:
        # each operation untraced, then again traced from the same state
        for index in range(workload.traced_rounds):
            for op in workload.round(index):
                run_op(op, rec, untraced, traced=False)
                workload.begin_pass()
                with wrapped_entry_points(rec) as missing:
                    run_op(op, rec, traced, traced=True)
    else:
        workload.begin_pass()
        for index in range(workload.traced_rounds):
            for op in workload.round(index):
                run_op(op, rec, untraced, traced=False)
        workload.begin_pass()
        with wrapped_entry_points(rec) as missing:
            for index in range(workload.traced_rounds):
                for op in workload.round(index):
                    run_op(op, rec, traced, traced=True)
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(rec.chrome_trace())

    metrics: Dict[str, tuple] = {}
    setup_rows = setup.per_name()
    for metric, span in SETUP_SPANS.items():
        metrics[metric] = (setup_rows.get(span, {}).get("self_s", 0.0), "s")
    for name in SETUP_COUNTERS:
        metrics[name] = (setup_counters.get(name, 0), "count")

    rows = rec.per_name()
    for metric, span in PASS_SPANS.items():
        if span not in missing:
            metrics[metric] = (rows.get(span, {}).get("self_s", 0.0), "s")
    if "atpg.podem" not in missing:
        podem = rows.get("atpg.podem", {"calls": 0, "self_s": 0.0})
        per_call = 1e3 * podem["self_s"] / podem["calls"] if podem["calls"] else 0.0
        metrics["atpg.podem.ms_per_call"] = (per_call, "ms")
    for _, core in ATPG_CORES:
        metrics[f"atpg.run_s.{core}"] = (rows.get(f"atpg.run.{core}", {}).get("total_s", 0.0), "s")
    for metric, span in MEAN_MS_SPANS.items():
        row = rows.get(span)
        metrics[metric] = (1e3 * row["total_s"] / row["calls"] if row else 0.0, "ms")
    for name in PASS_COUNTERS:
        metrics[name] = (traced.counters.get(name, 0), "count")
    for metric, (numerator, base) in RATIOS.items():
        denominator = sum(traced.counters.get(name, 0) for name in base)
        value = traced.counters.get(numerator, 0) / denominator if denominator else 0.0
        metrics[metric] = (value, "ratio")
    fidelity = fidelity_summary(workload.fidelity())
    metrics["teff_pct"] = (fidelity.get("teff_pct", 0.0), "%")
    metrics["fc_pct"] = (fidelity.get("fc_pct", 0.0), "%")
    overhead = 100.0 * (sum(traced.latencies) / sum(untraced.latencies) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")

    table = (
        f"set-up spans:\n{layer_table(setup)}\n\n"
        f"traced pass ({traced.attempted} ops):\n{layer_table(rec)}"
    )
    info = {
        "missing": sorted(missing.values()),
        "mix": traced.kinds,
        "table": table,
        "trace_file": str(trace_file.relative_to(HERE.parent)),
    }
    return [untraced, traced], metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    setup = SpanRecorder()
    with setup.window():
        with setup.span("import"):
            workload.imports()
            from repro.obs import METRICS
        mark = METRICS.mark()
        workload.setup(setup)
    setup_counters = METRICS.delta_since(mark)["counters"]
    print(f"ready {time.monotonic()!r}", flush=True)
    calibration = Calibrator()
    for _ in range(SETUP_CALIBRATION_SAMPLES):
        calibration.sample()
    print(f"calibration {calibration.overall_scale()!r}", flush=True)
    if args.setup_only:
        return 0

    workload.prepare(args.seed)
    peak = PeakRss()
    peak.reset()
    if args.trace:
        trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tallies, metrics, info = traced_metrics(workload, setup, setup_counters, trace_file)
    else:
        tallies, metrics, info = untraced_metrics(workload, args.seconds, calibration, peak)
    failures = [failure for tally in tallies for failure in tally.failures]
    payload = {
        "attempted": sum(tally.attempted for tally in tallies),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": {**info, "numpy": sys.modules["numpy"].__version__},
    }
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

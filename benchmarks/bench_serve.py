"""Planning-daemon serving benchmark: latency, throughput, cache warmth.

Runs an in-process ``repro serve`` daemon on a unix-domain socket and
drives it the way clients would:

* **cold** -- the first full-sweep request pays the SOC build and the
  whole design-space plan;
* **warm** -- repeats of the same request are served from the daemon's
  result cache (zero planning work), measured as p50/p99 latency;
* **concurrent** -- :data:`CLIENTS` client threads issue warm requests
  simultaneously; total wall time gives the throughput figure.

Determinism is asserted, not assumed: the daemon's sweep payload must
match a direct :func:`repro.soc.design_space` run point for point, and
the warm result must be byte-identical to the cold one.  The cold/warm
ratio must clear :data:`WARM_SPEEDUP_FLOOR` -- the resident state is
the whole reason the daemon exists.

``BENCH_serve.json`` carries the cold latency, the warm latency
distribution, and the concurrent throughput; the run also lands in the
benchmark ledger for ``repro regress`` (``serve.*`` and ``exec.*``
counters are exempt from the exact gate -- they track load and cache
warmth, not planned work).
"""

from __future__ import annotations

import json
import threading
import time

from conftest import SEED, write_bench_json, write_result

from repro.obs import METRICS
from repro.serve import ServeClient, ServeConfig, start_background
from repro.util import render_table

ROUNDS = 1
#: sequential warm requests measured for the latency distribution
WARM_ROUNDS = 30
#: concurrent client threads (the acceptance floor is 8)
CLIENTS = 8
#: warm requests issued by each concurrent client
REQUESTS_PER_CLIENT = 5
#: cold latency must beat warm latency by at least this factor
WARM_SPEEDUP_FLOOR = 3.0

_BENCH_SYSTEM = "System1"


def _percentile(values, p):
    ordered = sorted(values)
    rank = max(1, round(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _sweep_once(client: ServeClient) -> tuple:
    """(latency_s, result) of one full-sweep request."""
    start = time.perf_counter()
    result = client.run("sweep", _BENCH_SYSTEM)
    return time.perf_counter() - start, result


def _drive_daemon(socket_path: str) -> dict:
    """Cold, warm and concurrent phases against a fresh daemon."""
    daemon = start_background(ServeConfig(address=f"unix:{socket_path}"))
    try:
        with ServeClient(daemon.address) as client:
            cold_s, cold_result = _sweep_once(client)
            warm_latencies = []
            warm_result = None
            for _ in range(WARM_ROUNDS):
                latency, warm_result = _sweep_once(client)
                warm_latencies.append(latency)
        concurrent = _drive_concurrent(daemon.address)
        with ServeClient(daemon.address) as client:
            stats = client.stats()
            client.shutdown()
    finally:
        daemon.request_drain()
        daemon.wait_finished(30)
    return {
        "cold_s": cold_s,
        "cold_result": cold_result,
        "warm_latencies": warm_latencies,
        "warm_result": warm_result,
        "concurrent": concurrent,
        "stats": stats,
    }


def _drive_concurrent(address: str) -> dict:
    """CLIENTS threads x REQUESTS_PER_CLIENT warm requests each."""
    latencies = [[] for _ in range(CLIENTS)]
    results = [None] * CLIENTS
    errors = []

    def worker(index: int) -> None:
        try:
            with ServeClient(address) as client:
                for _ in range(REQUESTS_PER_CLIENT):
                    latency, result = _sweep_once(client)
                    latencies[index].append(latency)
                    results[index] = result
        except Exception as error:  # surfaces as a bench failure below
            errors.append(f"client {index}: {error}")

    threads = [
        threading.Thread(target=worker, args=(index,), name=f"bench-client-{index}")
        for index in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    assert not errors, f"concurrent clients failed: {errors}"
    flat = [latency for per_client in latencies for latency in per_client]
    return {
        "clients": CLIENTS,
        "requests": len(flat),
        "wall_s": wall_s,
        "throughput_rps": len(flat) / wall_s,
        "latencies": flat,
        "results": results,
    }


def run_serving() -> dict:
    from conftest import RESULTS_DIR

    RESULTS_DIR.mkdir(exist_ok=True)
    socket_path = RESULTS_DIR / "bench_serve.sock"
    if socket_path.exists():
        socket_path.unlink()
    try:
        return _drive_daemon(str(socket_path))
    finally:
        if socket_path.exists():
            socket_path.unlink()


def _reference_points() -> list:
    """The one-shot sweep the daemon must reproduce bit-for-bit."""
    from repro.designs import system_builders
    from repro.soc import design_space

    soc = system_builders()[_BENCH_SYSTEM](atpg_seed=SEED)
    return [
        {
            "index": p.index,
            "selection": {core: v + 1 for core, v in p.selection.items()},
            "tat": p.tat,
            "chip_cells": p.chip_cells,
            "label": p.label(),
        }
        for p in design_space(soc)
    ]


def test_serve_daemon(benchmark, results_dir):
    METRICS.reset()  # BENCH json carries exactly the measured runs' counters
    run = benchmark.pedantic(run_serving, rounds=ROUNDS, iterations=1)

    # determinism: daemon results == one-shot CLI results, cold == warm
    assert run["cold_result"]["points"] == _reference_points(), (
        "daemon sweep diverged from one-shot design_space"
    )
    assert run["warm_result"] == run["cold_result"], "warm result differs from cold"
    for result in run["concurrent"]["results"]:
        assert result == run["cold_result"], (
            "a concurrent client saw a divergent sweep result"
        )

    # the resident state must pay off: warm >= 3x faster than cold
    warm_p50 = _percentile(run["warm_latencies"], 50)
    warm_p99 = _percentile(run["warm_latencies"], 99)
    speedup = run["cold_s"] / max(warm_p50, 1e-9)
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm/cold speedup {speedup:.1f}x below {WARM_SPEEDUP_FLOOR}x "
        f"(cold {run['cold_s']:.3f}s, warm p50 {warm_p50:.4f}s)"
    )
    # ...and the hits must come from the daemon's result cache
    cache = run["stats"]["result_cache"]
    assert cache["hits"] >= WARM_ROUNDS, cache

    concurrent = run["concurrent"]
    payload = {
        "system": _BENCH_SYSTEM,
        "cold_s": run["cold_s"],
        "warm": {
            "rounds": WARM_ROUNDS,
            "p50_s": warm_p50,
            "p99_s": warm_p99,
            "speedup_vs_cold": speedup,
        },
        "concurrent": {
            "clients": concurrent["clients"],
            "requests": concurrent["requests"],
            "wall_s": concurrent["wall_s"],
            "throughput_rps": concurrent["throughput_rps"],
            "p50_s": _percentile(concurrent["latencies"], 50),
            "p99_s": _percentile(concurrent["latencies"], 99),
        },
        "result_cache": {k: cache[k] for k in ("size", "hits", "misses")},
    }
    write_bench_json(results_dir, "serve", benchmark, payload, rounds=ROUNDS)

    rows = [[
        f"{run['cold_s'] * 1000:.1f}",
        f"{warm_p50 * 1000:.2f}",
        f"{warm_p99 * 1000:.2f}",
    ]]
    text = render_table(
        ["cold (ms)", "warm p50 (ms)", "warm p99 (ms)"],
        rows,
        title=f"repro serve: {_BENCH_SYSTEM} sweep latency",
    )
    text += (
        f"\n\nconcurrent: {concurrent['clients']} clients, "
        f"{concurrent['requests']} requests in {concurrent['wall_s']:.3f}s "
        f"({concurrent['throughput_rps']:.0f} req/s); "
        f"warm/cold speedup {speedup:.0f}x"
    )
    write_result(results_dir, "serve", text)
    print(json.dumps(payload["warm"], indent=2))

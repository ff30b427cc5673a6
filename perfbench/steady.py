"""Steadiness mode: run workloads repeatedly and compare spread to bounds.

For each workload, runs ``run.py`` (``--trace 0``) once per seed
``0 .. runs-1``, in two sets, and prints per end-to-end metric of
``BENCHMARK.json`` the first set's median, the larger quartile spread
``(q3 - q1) / median`` of the two sets, that spread as a share of the
metric's bound, and how much worse the second set's median is than the
first's.  It exits 1 when a spread or that shift is over the bound; a
spread under a third of the bound is steady.  Raw results go to
``perfbench/out/steady-*.json``.

Usage (from the repository root)::

    python3 perfbench/steady.py [--workload W ...] [--runs 10]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the same seeds run twice; the sets' medians must agree within the bound
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark steadiness check.")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    seeds = range(args.runs)
    raw: Dict[str, List[List[Dict[str, float]]]] = {}
    steady = True
    for workload in args.workload or names:
        raw[workload] = []
        for number in range(SETS):
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"# {workload} set {number + 1} seed {seed}: {runs[-1]}", flush=True)
            raw[workload].append(runs)
        print(f"\n{workload}: {args.runs} runs x {SETS} sets")
        print(f"  {'metric':<14} {'median':>12} {'spread':>8} {'/bound':>7} {'shift':>8}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sets = [[run[name] for run in runs] for runs in raw[workload]]
            medians = [statistics.median(values) for values in sets]
            spreads = [spread(values) for values in sets]
            shift = worse_by(medians[0], medians[1], metric["better"])
            failures = []
            if max(spreads) > bound:
                failures.append("SPREAD OVER BOUND")
            if shift > bound:
                failures.append("MEDIAN SHIFT OVER BOUND")
            steady = steady and not failures
            verdict = ", ".join(failures)
            if not verdict:
                verdict = "spread over bound/3" if max(spreads) > bound / 3 else "steady"
            print(
                f"  {name:<14} {medians[0]:>12.6g} {max(spreads):>8.4f} "
                f"{max(spreads) / bound:>7.2f} {shift:>8.4f}  {verdict}"
            )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out_file.write_text(json.dumps({"seeds": list(seeds), "runs": raw}, indent=1))
    print(f"\nraw results: {out_file.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

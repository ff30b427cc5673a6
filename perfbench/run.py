"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload atpg|grade|plan --seed N --seconds S --trace 0|1

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Every operation's output is checked; a wrong output counts as a failed
operation and the command exits 1.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines
before it are a readable summary and a ``meta`` line; the full result
is also written to ``perfbench/out/``.

Each measurement runs in a fresh interpreter started from here.  With
``--trace 0`` set-up is also timed in :data:`SETUP_PROBES` further
interpreters that stop after set-up, and ``setup_s`` is the median.
Times are scaled to a reference host speed (``calibrate.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

WORKLOAD_NAMES = ("atpg", "grade", "plan")
#: settings that select a different program configuration
REFUSED_ENV = ("REPRO_JOBS", "REPRO_SIM_BACKEND", "REPRO_PLAN_CACHE", "REPRO_ATTRIB")
#: set-up-only interpreters per untraced run (plus the measuring one)
SETUP_PROBES = 4
#: a run must end within this many seconds
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha(root: Path) -> str:
    """HEAD's commit from the ``.git`` directory, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> Dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(SRC),
    }


def _worker_command(args, setup_only: bool) -> List[str]:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    return command + (["--setup-only"] if setup_only else [])


def run_worker(args, setup_only: bool, deadline: float) -> Tuple[float, float, Optional[dict]]:
    """Run one worker interpreter.

    Returns its set-up seconds, the calibration factor that scales them
    to reference speed, and its result (None with ``setup_only``).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # CLOCK_MONOTONIC is system-wide, so the worker's ``ready <t>`` stamp
    # compares with this process's clock
    start = time.monotonic()
    process = subprocess.Popen(
        _worker_command(args, setup_only),
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError("worker ran past the deadline") from None
    lines = out.splitlines()
    if (
        process.returncode != 0
        or len(lines) < 2
        or not lines[0].startswith("ready ")
        or not lines[1].startswith("calibration ")
    ):
        raise BenchError(f"worker failed (exit {process.returncode})")
    setup_s = float(lines[0].split()[1]) - start
    scale = float(lines[1].split()[1])
    if setup_only:
        return setup_s, scale, None
    if len(lines) < 3:
        raise BenchError("worker printed no result")
    return setup_s, scale, json.loads(lines[-1])


def measure(args) -> Tuple[dict, Dict[str, object]]:
    deadline = time.monotonic() + DEADLINE_S
    samples = []  # (raw set-up seconds, calibration factor) per interpreter
    if not args.trace:
        for _ in range(SETUP_PROBES):
            samples.append(run_worker(args, True, deadline)[:2])
    setup_s, scale, result = run_worker(args, False, deadline)
    samples.append((setup_s, scale))
    if not args.trace:
        scaled = statistics.median(raw * factor for raw, factor in samples)
        result["metrics"]["setup_s"] = {"value": scaled, "unit": "s"}
    meta = metadata(args)
    meta["setup_samples_s"] = [raw for raw, _ in samples]
    meta["setup_calibration"] = [factor for _, factor in samples]
    meta.update(result.pop("info"))
    return result, meta


def render(result: dict, meta: Dict[str, object]) -> str:
    lines = [
        f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
        f"attempted {result['attempted']}  failed {result['failed']}"
    ]
    for name, metric in sorted(result["metrics"].items()):
        lines.append(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for failure in result.get("failures", []):
        lines.append(f"  FAILED: {failure}")
    if meta.get("missing"):
        lines.append("  missing wrap targets: " + ", ".join(meta["missing"]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(
            f"perfbench: refusing to run with {', '.join(refused)} set: "
            "that measures a different program configuration",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result, meta = measure(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    table = meta.pop("table", None)
    print(render(result, meta))
    if table:
        print(table)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, **result}
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True))
    print("meta " + json.dumps(meta, sort_keys=True))
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

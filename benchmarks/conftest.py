"""Shared fixtures for the benchmark harness.

System builds (which include per-core HSCAN insertion and transparency
version synthesis) are cached per session; each bench writes the table
it reproduces to ``benchmarks/results/<bench>.txt``, its results as
``BENCH_<bench>.json``, and its timing and counters as one record in
the run ledger ``benchmarks/results/ledger.jsonl``.  Timing comes from
:func:`measure` alone.

Every randomized stage in the benches is pinned to :data:`SEED` -- the
system builders take it as ``atpg_seed``, so two runs of the same bench
produce identical plans, schedules, and counters (only wall time moves).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import pytest

# ----------------------------------------------------------------------
# deterministic counter universe
# ----------------------------------------------------------------------
# Module-scope instruments exist in the shared registry only once their
# module is imported, and registry snapshots record zeros for idle
# instruments (zero vs absent are different facts to the counter gate).
# Import every instrumented pipeline module up front so a bench records
# the same counter set whether its file runs solo (as CI does) or as
# part of the full suite -- otherwise "atpg.patterns: 0 -> absent"
# style drift would trip `repro regress` purely from invocation shape.
import repro.atpg.combinational  # noqa: F401
import repro.atpg.podem  # noqa: F401
import repro.dft.hscan  # noqa: F401
import repro.exec.cache  # noqa: F401
import repro.faults.kernel  # noqa: F401
import repro.faults.simulator  # noqa: F401
import repro.flow.explain  # noqa: F401
import repro.gates.kernel  # noqa: F401
import repro.lint.registry  # noqa: F401
import repro.obs.attrib  # noqa: F401
import repro.schedule.packers  # noqa: F401
import repro.soc.ccg  # noqa: F401
import repro.soc.optimizer  # noqa: F401
import repro.soc.plan  # noqa: F401
import repro.transparency.search  # noqa: F401

RESULTS_DIR = Path(__file__).parent / "results"

#: the one seed every randomized stage (ATPG random phase, fault
#: sampling) is pinned to -- benches must be bit-identical across runs
SEED = 0


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return SEED


#: session-cached SOCs, tracked so every bench can start from cold
#: planning caches (see :func:`canonical_cache_state`)
_SESSION_SOCS: List = []


def _track(soc):
    _SESSION_SOCS.append(soc)
    return soc


@pytest.fixture(autouse=True)
def canonical_cache_state():
    """Reset cross-test warm state so counters are invocation-invariant.

    The plan cache lives on the (session-cached) ``Soc`` objects and
    fanout cones are shared per netlist, so a bench that runs after
    another bench in the same session would otherwise count fewer
    ``chiplevel.*`` / ``faultsim.cone.*`` events than the same bench run
    solo -- and its ledger record would trip the exact counter gate
    against history recorded under the other invocation shape.
    """
    from repro.exec import invalidate_plan_cache
    from repro.faults.simulator import clear_cone_caches
    from repro.gates.kernel import clear_kernel_caches

    for soc in _SESSION_SOCS:
        invalidate_plan_cache(soc)
    clear_cone_caches()
    clear_kernel_caches()
    yield


@pytest.fixture(scope="session")
def system1():
    from repro.designs import build_system1

    return _track(build_system1(atpg_seed=SEED))


@pytest.fixture(scope="session")
def system1_paper_vectors():
    """System 1 with the paper's DISPLAY test-set size (105 vectors).

    Used by the Section 3 worked example, whose published cycle counts
    (525 x 9 + 3 = 4,728 etc.) assume 105 combinational vectors.
    """
    from repro.designs import build_system1

    return _track(build_system1(test_vectors={"DISPLAY": 105}, atpg_seed=SEED))


@pytest.fixture(scope="session")
def system2():
    from repro.designs import build_system2

    return _track(build_system2(atpg_seed=SEED))


@pytest.fixture(scope="session")
def system3():
    from repro.designs import build_system3

    return _track(build_system3(atpg_seed=SEED))


@pytest.fixture(scope="session")
def system4():
    from repro.designs import build_system4

    return _track(build_system4(atpg_seed=SEED))


@pytest.fixture(scope="session")
def all_systems(system1, system2, system3, system4):
    """The registered designs, in registry order."""
    return [system1, system2, system3, system4]


def write_result(results_dir: Path, name: str, text: str) -> None:
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def measure(fn: Callable, *args, rounds: int = 1) -> Tuple[object, List[float]]:
    """Call ``fn(*args)`` ``rounds`` times; the last result and the
    per-round wall times in seconds (``time.perf_counter``)."""
    result = None
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn(*args)
        samples.append(time.perf_counter() - start)
    return result, samples


#: every bench appends its run record here (next to the BENCH json)
LEDGER_NAME = "ledger.jsonl"


def write_bench_json(
    results_dir: Path, name: str, samples: Sequence[float], results
) -> Path:
    """Write ``BENCH_<name>.json`` and append a run-ledger record.

    The BENCH file holds the bench's ``results`` alone (sorted keys), so
    a deterministic bench rewrites it byte for byte.  The ledger record
    carries the raw per-round ``samples``, every counter of the shared
    metrics registry (callers reset it before the measured run) and its
    histograms, so ``repro regress`` can compare this run against the
    bench's history.
    """
    from repro.obs import METRICS
    from repro.obs.ledger import RunLedger, make_record

    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    histograms = METRICS.histograms()
    ledger = RunLedger(results_dir / LEDGER_NAME)
    ledger.append(
        make_record(
            bench=name,
            samples=samples,
            registry=METRICS,
            kind="bench",
            histograms=histograms or None,
        )
    )
    print(f"[bench json written to {path}; run appended to {ledger.path}]")
    return path

"""The benchmark's three workloads: ``atpg``, ``grade`` and ``plan``.

Each workload is one closed-loop client: it builds its inputs, then
issues operations one after another, each a call into the program's
public API followed (outside the timed region) by a correctness check.

* ``atpg`` -- a round is ``CombinationalAtpg(netlist, seed).run()`` over
  the full collapsed fault list of each System2 core (GRAPHICS, GCD,
  X25).  PODEM dominates.  Each run must classify at least the stored
  number of faults (``expected_atpg.json``), so speed cannot be bought
  with test efficiency.
* ``grade`` -- a round is ``sequential_fault_grade`` of the Orig. and
  HSCAN flattenings of System1 and System2 (full fault lists, 64
  sequences x 32 cycles) plus full ATPG of DISPLAY and X25.  Fault
  simulation and the numpy kernels dominate; PODEM runs few calls.
* ``plan`` -- a round is a block of 32 planning requests over the
  already-built Systems 1-4 (sweeps with a cold and a warm plan cache,
  both optimizer objectives, scheduling, certification, lint).  No ATPG.

Rounds of ``atpg`` and ``grade`` start from cold simulation caches, as a
fresh process would; every round repeats the same work.  ``plan``
rounds continue one seeded request stream.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
EXPECTED_GRADE = HERE / "expected_grade.json"
EXPECTED_ATPG = HERE / "expected_atpg.json"

#: functional stimulus shape of the ``grade`` workload
SEQUENCES = 64
CYCLES = 32
#: number of input sets with stored expected results; ``--seed`` picks
#: set ``seed % INPUT_SETS``, which is also the ATPG seed
INPUT_SETS = 16
#: ``(system, core)`` of every core a workload runs ATPG on
ATPG_CORES = (
    ("System2", "GRAPHICS"),
    ("System2", "GCD"),
    ("System2", "X25"),
    ("System1", "DISPLAY"),
)

#: requests of each kind per system in one ``plan`` block (8 x 4 systems)
PLAN_BLOCK = (
    ("sweep_cold", 1),
    ("sweep_warm", 2),
    ("optimize_tat", 1),
    ("optimize_area", 1),
    ("schedule", 1),
    ("certify", 1),
    ("lint", 1),
)
PLAN_SYSTEMS = ("System1", "System2", "System3", "System4")
PLAN_ROUND = len(PLAN_SYSTEMS) * sum(count for _, count in PLAN_BLOCK)
#: the fewest requests a measured run makes: its p99 then has at least
#: 10 samples beyond it
PLAN_MIN_REQUESTS = 1000
#: optimizer budgets and selections per system that requests draw from
CANDIDATES = 4


@dataclass
class Op:
    """One operation: the timed program call and its untimed check."""

    kind: str
    call: Callable[[SpanRecorder], object]
    check: Callable[[object], Optional[str]]  # error message, or None if correct


@dataclass
class CoreTarget:
    """A netlist with its full collapsed fault list."""

    name: str
    netlist: object
    faults: list


def _collapsed(rec: SpanRecorder, netlist) -> list:
    from repro.faults.collapse import collapse_faults
    from repro.faults.model import full_fault_universe

    with rec.span("faults.collapse"):
        return collapse_faults(netlist, full_fault_universe(netlist))


def core_target(rec: SpanRecorder, soc, name: str) -> CoreTarget:
    from repro.elaborate import elaborate

    with rec.span("elaborate"):
        netlist = elaborate(soc.cores[name].circuit).netlist
    return CoreTarget(name, netlist, _collapsed(rec, netlist))


def _reset_simulation_caches() -> None:
    """Cold compiled-kernel and fanout-cone caches, as in a fresh process."""
    from repro.faults.simulator import clear_cone_caches
    from repro.gates.kernel import clear_kernel_caches

    clear_kernel_caches()
    clear_cone_caches()


def _import_atpg() -> None:
    import repro.atpg.combinational  # noqa: F401
    import repro.designs  # noqa: F401
    import repro.elaborate  # noqa: F401
    import repro.faults.collapse  # noqa: F401
    import repro.faults.simulator  # noqa: F401
    import repro.gates.kernel  # noqa: F401


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def load_expected(path: Path, seed: int) -> dict:
    """The stored expected results of ``seed``'s input set."""
    return json.loads(path.read_text())["expected"][str(input_set(seed))]


class _AtpgRunner:
    """ATPG ops with the re-grade, fidelity and determinism checks."""

    def __init__(self) -> None:
        self.seed = 0
        #: core -> (stored detected + redundant, total) at this seed
        self.floor: Dict[str, List[int]] = {}
        self._first: Dict[str, Tuple] = {}
        #: core -> (total, detected, redundant, aborted, patterns)
        self.fidelity: Dict[str, Tuple[int, int, int, int, int]] = {}

    def prepare(self, seed: int) -> None:
        self.seed = input_set(seed)
        self.floor = load_expected(EXPECTED_ATPG, seed)

    def op(self, target: CoreTarget) -> Op:
        from repro.atpg.combinational import CombinationalAtpg

        def call(rec: SpanRecorder):
            with rec.span(f"atpg.run.{target.name}"):
                return CombinationalAtpg(target.netlist, self.seed).run(target.faults)

        return Op("atpg", call, lambda outcome: self._check(target, outcome))

    def _check(self, target: CoreTarget, outcome) -> Optional[str]:
        from repro.faults.simulator import FaultSimulator

        report = outcome.report
        if report.total != len(target.faults):
            return f"{target.name}: report total {report.total} != {len(target.faults)} faults"
        if report.detected + report.redundant + report.aborted > report.total:
            return (
                f"{target.name}: detected {report.detected} + redundant {report.redundant}"
                f" + aborted {report.aborted} > total {report.total}"
            )
        covered, total = self.floor[target.name]
        if report.total != total:
            return f"{target.name}: report total {report.total} != stored total {total}"
        if report.detected + report.redundant < covered:
            return (
                f"{target.name}: detected {report.detected} + redundant {report.redundant}"
                f" < stored {covered}: test efficiency fell"
            )
        regraded = FaultSimulator(target.netlist).run(outcome.patterns, target.faults)
        if len(regraded.detected) != report.detected:
            return (
                f"{target.name}: re-grade of {len(outcome.patterns)} patterns detects "
                f"{len(regraded.detected)}, report says {report.detected}"
            )
        digest = (
            report.detected,
            report.redundant,
            report.aborted,
            tuple(tuple(sorted(pattern.items())) for pattern in outcome.patterns),
        )
        first = self._first.setdefault(target.name, digest)
        if digest != first:
            return f"{target.name}: result differs from the first round's"
        self.fidelity[target.name] = (
            report.total,
            report.detected,
            report.redundant,
            report.aborted,
            len(outcome.patterns),
        )
        return None


# ----------------------------------------------------------------------
# atpg
# ----------------------------------------------------------------------
class AtpgWorkload:
    name = "atpg"
    cores = ("GRAPHICS", "GCD", "X25")
    min_ops = 1
    traced_rounds = 1
    interleave = True

    def __init__(self) -> None:
        self.atpg = _AtpgRunner()
        self.targets: List[CoreTarget] = []

    def imports(self) -> None:
        _import_atpg()

    def setup(self, rec: SpanRecorder) -> None:
        from repro.designs import build_system2

        with rec.span("designs.build"):
            soc = build_system2()
        self.targets = [core_target(rec, soc, name) for name in self.cores]

    def prepare(self, seed: int) -> None:
        self.atpg.prepare(seed)

    def begin_pass(self) -> None:
        _reset_simulation_caches()

    def round(self, index: int) -> List[Op]:
        self.begin_pass()
        return [self.atpg.op(target) for target in self.targets]

    def fidelity(self) -> Dict[str, Tuple[int, int, int, int, int]]:
        return self.atpg.fidelity


# ----------------------------------------------------------------------
# grade
# ----------------------------------------------------------------------
def grade_flattenings() -> List[Tuple[str, str, bool]]:
    """``(key, system, with_hscan)`` of every graded flattening."""
    return [
        (f"{system}/{'hscan' if hscan else 'orig'}", system, hscan)
        for system in ("System1", "System2")
        for hscan in (False, True)
    ]


def grade_stimuli(netlist, key: str, bank: int) -> List[List[Dict[str, int]]]:
    """The seeded functional sequences for one flattening and stimulus set."""
    rng = random.Random(f"grade:{bank}:{key}")
    names = [gate.name for gate in netlist.inputs]
    return [
        [{name: rng.getrandbits(1) for name in names} for _ in range(CYCLES)]
        for _ in range(SEQUENCES)
    ]


def build_flattenings(rec: SpanRecorder, socs: Dict[str, object]) -> Dict[str, CoreTarget]:
    from repro.flow.system_netlist import flatten_soc

    flats: Dict[str, CoreTarget] = {}
    for key, system, hscan in grade_flattenings():
        with rec.span("flow.flatten"):
            netlist = flatten_soc(socs[system], with_hscan=hscan, scan_access="none")
        flats[key] = CoreTarget(key, netlist, _collapsed(rec, netlist))
    return flats


class GradeWorkload:
    name = "grade"
    atpg_cores = (("System1", "DISPLAY"), ("System2", "X25"))
    min_ops = 1
    traced_rounds = 1
    interleave = True

    def __init__(self) -> None:
        self.atpg = _AtpgRunner()
        self.targets: List[CoreTarget] = []
        self.flats: Dict[str, CoreTarget] = {}
        self.stimuli: Dict[str, list] = {}
        self.expected: Dict[str, List[int]] = {}

    def imports(self) -> None:
        _import_atpg()
        import repro.flow.system_netlist  # noqa: F401

    def setup(self, rec: SpanRecorder) -> None:
        from repro.designs import build_system1, build_system2

        with rec.span("designs.build"):
            socs = {"System1": build_system1(), "System2": build_system2()}
        self.flats = build_flattenings(rec, socs)
        self.targets = [core_target(rec, socs[system], core) for system, core in self.atpg_cores]

    def prepare(self, seed: int) -> None:
        self.atpg.prepare(seed)
        stored = json.loads(EXPECTED_GRADE.read_text())
        if (stored["sequences"], stored["cycles"]) != (SEQUENCES, CYCLES):
            raise ValueError(f"{EXPECTED_GRADE.name} was made for another stimulus shape")
        self.expected = load_expected(EXPECTED_GRADE, seed)
        self.stimuli = {
            key: grade_stimuli(flat.netlist, key, input_set(seed))
            for key, flat in self.flats.items()
        }

    def begin_pass(self) -> None:
        _reset_simulation_caches()

    def round(self, index: int) -> List[Op]:
        self.begin_pass()
        ops = [self.atpg.op(target) for target in self.targets]
        ops.extend(self._grade_op(key) for key in self.flats)
        return ops

    def _grade_op(self, key: str) -> Op:
        from repro.faults.simulator import sequential_fault_grade

        flat = self.flats[key]
        stimuli = self.stimuli[key]

        def call(rec: SpanRecorder):
            with rec.span("faults.seq_grade"):
                return sequential_fault_grade(flat.netlist, stimuli, flat.faults)

        def check(result) -> Optional[str]:
            got = [len(result.detected), result.total]
            if got != self.expected[key]:
                return f"{key}: graded detected/total {got}, expected {self.expected[key]}"
            return None

        return Op("grade", call, check)

    def fidelity(self) -> Dict[str, Tuple[int, int, int, int, int]]:
        return self.atpg.fidelity


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
def _plan_digest(plan) -> Tuple:
    return (
        tuple(sorted(plan.selection.items())),
        plan.total_tat,
        plan.chip_dft_cells,
        tuple(sorted(str(mux) for mux in plan.test_muxes)),
        tuple(sorted((name, core.tat) for name, core in plan.core_plans.items())),
    )


def _point_digest(point) -> Tuple:
    return (point.index, tuple(sorted(point.selection.items())), point.tat, point.chip_cells)


def _sweep_digest(points) -> Tuple:
    return tuple(_point_digest(p) + (_plan_digest(p.plan),) for p in points)


def _optimizer_digest(result) -> Tuple:
    plan, trajectory = result
    return (_plan_digest(plan), tuple(_point_digest(p) for p in trajectory))


def _schedule_digest(schedule) -> Tuple:
    return (
        schedule.makespan,
        tuple(sorted((e.core, e.start, e.end) for e in schedule.entries)),
    )


def _spread(items: list, count: int = CANDIDATES) -> list:
    """``count`` items evenly spaced through ``items`` (all if fewer)."""
    if len(items) <= count:
        return list(items)
    return [items[(i * (len(items) - 1)) // (count - 1)] for i in range(count)]


@dataclass
class _SystemReference:
    """``use_cache=False`` results every request on one system must match."""

    sweep: Tuple
    optimize: Dict[Tuple[str, int], Tuple]  # (kind, budget) -> digest
    selections: List[Dict[str, int]]
    schedules: Dict[Tuple[int, str], Tuple]  # (selection index, algorithm) -> digest
    certificates: List[str]  # per selection index
    lint: str


class PlanWorkload:
    name = "plan"
    min_ops = PLAN_MIN_REQUESTS
    traced_rounds = -(-PLAN_MIN_REQUESTS // PLAN_ROUND)
    #: requests change the plan caches, so a traced pass repeats a whole
    #: untraced pass from a fresh :meth:`begin_pass`
    interleave = False

    def __init__(self) -> None:
        self.socs: Dict[str, object] = {}
        self.refs: Dict[str, _SystemReference] = {}
        self.seed = 0

    def imports(self) -> None:
        import repro.analysis.certify  # noqa: F401
        import repro.designs  # noqa: F401
        import repro.exec.cache  # noqa: F401
        import repro.lint  # noqa: F401
        import repro.schedule  # noqa: F401
        import repro.soc.optimizer  # noqa: F401
        import repro.soc.plan  # noqa: F401

    def setup(self, rec: SpanRecorder) -> None:
        from repro.designs import system_builders

        builders = system_builders()
        with rec.span("designs.build"):
            self.socs = {name: builders[name]() for name in PLAN_SYSTEMS}
        self._warm(rec)

    def _warm(self, rec: SpanRecorder) -> None:
        """Fill each SOC's plan cache with one sweep."""
        from repro.soc.optimizer import design_space

        for soc in self.socs.values():
            with rec.span("soc.warm"):
                design_space(soc)

    def prepare(self, seed: int) -> None:
        """Compute every reference on separate SOCs with the plan cache off."""
        from repro.designs import system_builders
        from repro.exec.cache import CACHE_ENV

        self.seed = seed
        builders = system_builders()
        os.environ[CACHE_ENV] = "0"
        try:
            for name in PLAN_SYSTEMS:
                self.refs[name] = self._reference(builders[name]())
        finally:
            del os.environ[CACHE_ENV]

    @staticmethod
    def _reference(soc) -> _SystemReference:
        from repro.analysis.certify import certify_soc
        from repro.errors import InfeasibleConstraintError
        from repro.lint import lint_soc
        from repro.soc.optimizer import SocetOptimizer, design_space
        from repro.soc.plan import plan_soc_test

        points = design_space(soc, use_cache=False)
        default_plan = plan_soc_test(soc, use_cache=False)
        cells = sorted({p.chip_cells for p in points})
        tats = sorted({p.tat for p in points})
        # each kind keeps one budget known to be feasible plus spread others
        budgets = {
            "optimize_tat": {cells[-1], *_spread(cells)},
            "optimize_area": {default_plan.total_tat, *_spread(tats)},
        }
        optimizer = SocetOptimizer(soc)
        methods = {
            "optimize_tat": optimizer.minimize_tat,
            "optimize_area": optimizer.minimize_area,
        }
        optimize: Dict[Tuple[str, int], Tuple] = {}
        for kind, values in budgets.items():
            for budget in sorted(values):
                try:
                    optimize[(kind, budget)] = _optimizer_digest(methods[kind](budget))
                except InfeasibleConstraintError:
                    continue
        selections = [{core.name: 0 for core in soc.testable_cores()}]
        selections += [dict(p.selection) for p in _spread(points)]
        schedules = {}
        for index, selection in enumerate(selections):
            plan = plan_soc_test(soc, dict(selection), use_cache=False)
            for algorithm in ("greedy", "sessions"):
                schedules[(index, algorithm)] = _schedule_digest(plan.schedule(algorithm=algorithm))
        return _SystemReference(
            sweep=_sweep_digest(points),
            optimize=optimize,
            selections=selections,
            schedules=schedules,
            certificates=[certify_soc(soc, dict(s)).to_json() for s in selections],
            lint=lint_soc(soc).to_json(),
        )

    def begin_pass(self) -> None:
        from repro.exec.cache import invalidate_plan_cache

        for soc in self.socs.values():
            invalidate_plan_cache(soc)
        self._warm(SpanRecorder())

    def round(self, index: int) -> List[Op]:
        rng = random.Random(f"plan:{self.seed}:{index}")
        requests = [
            (kind, system)
            for system in PLAN_SYSTEMS
            for kind, count in PLAN_BLOCK
            for _ in range(count)
        ]
        rng.shuffle(requests)
        return [self._request(kind, system, rng) for kind, system in requests]

    def _request(self, kind: str, system: str, rng: random.Random) -> Op:
        from repro.analysis.certify import certify_soc
        from repro.exec.cache import invalidate_plan_cache
        from repro.lint import lint_soc
        from repro.soc.optimizer import SocetOptimizer, design_space
        from repro.soc.plan import plan_soc_test

        soc = self.socs[system]
        ref = self.refs[system]

        def expect(digest: Callable[[object], object], wanted) -> Callable[[object], Optional[str]]:
            def check(output) -> Optional[str]:
                if digest(output) != wanted:
                    return f"{kind} on {system}: result differs from the use_cache=False reference"
                return None

            return check

        if kind == "sweep_cold":

            def call(rec: SpanRecorder):
                with rec.span("soc.sweep_cold"):
                    invalidate_plan_cache(soc)
                    return design_space(soc)

            return Op(kind, call, expect(_sweep_digest, ref.sweep))
        if kind == "sweep_warm":

            def call(rec: SpanRecorder):
                with rec.span("soc.sweep_warm"):
                    return design_space(soc)

            return Op(kind, call, expect(_sweep_digest, ref.sweep))
        if kind in ("optimize_tat", "optimize_area"):
            budget = rng.choice(sorted(b for k, b in ref.optimize if k == kind))
            method = "minimize_tat" if kind == "optimize_tat" else "minimize_area"

            def call(rec: SpanRecorder):
                with rec.span("soc.optimize"):
                    return getattr(SocetOptimizer(soc), method)(budget)

            return Op(kind, call, expect(_optimizer_digest, ref.optimize[(kind, budget)]))
        if kind == "schedule":
            index = rng.randrange(len(ref.selections))
            algorithm = rng.choice(("greedy", "sessions"))

            def call(rec: SpanRecorder):
                with rec.span("soc.plan"):
                    plan = plan_soc_test(soc, dict(ref.selections[index]))
                with rec.span("schedule"):
                    return plan.schedule(algorithm=algorithm)

            wanted = ref.schedules[(index, algorithm)]

            def check(schedule) -> Optional[str]:
                violations = list(schedule.iter_violations())
                if violations:
                    return f"schedule on {system}: {len(violations)} violations, first {violations[0]}"
                if _schedule_digest(schedule) != wanted:
                    return f"schedule on {system}: timeline differs from the reference"
                return None

            return Op(kind, call, check)
        if kind == "certify":
            index = rng.randrange(len(ref.selections))

            def call(rec: SpanRecorder):
                with rec.span("analysis.certify"):
                    return certify_soc(soc, dict(ref.selections[index]))

            return Op(kind, call, expect(lambda c: c.to_json(), ref.certificates[index]))
        if kind == "lint":

            def call(rec: SpanRecorder):
                with rec.span("lint.soc"):
                    return lint_soc(soc)

            return Op(kind, call, expect(lambda r: r.to_json(), ref.lint))
        raise ValueError(f"unknown plan request kind {kind!r}")

    def fidelity(self) -> Dict[str, Tuple[int, int, int, int, int]]:
        return {}


WORKLOADS = {"atpg": AtpgWorkload, "grade": GradeWorkload, "plan": PlanWorkload}

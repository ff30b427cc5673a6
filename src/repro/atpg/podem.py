"""PODEM (Path-Oriented DEcision Making) combinational test generation.

Implements the classic algorithm: pick an objective (activate the fault,
then propagate a D to an observation point), backtrace the objective to a
primary-input assignment, imply, and backtrack on conflicts.  The engine
works on the *combinational view* of a gate netlist -- flip-flop outputs
are assignable pseudo-primary inputs and flip-flop D pins are observed,
which is exactly the situation full-scan/HSCAN cores present.

A fault proven untestable by exhausting the decision tree is *redundant*;
hitting the backtrack limit *aborts*.  Both outcomes feed the paper's
test-efficiency metric.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

from repro.errors import AtpgError
from repro.obs import METRICS
from repro.obs.attrib import ATTRIB
from repro.atpg.values import CONTROLLING, ONE, X, ZERO, evaluator, v_not
from repro.faults.model import Fault
from repro.gates.cells import SOURCE_KINDS, STATE_KINDS, GateKind
from repro.gates.levelize import depth_levels, levelize
from repro.gates.netlist import Gate, GateNetlist

#: PODEM's assignable sources exclude constants (they cannot be set)
_ASSIGNABLE_KINDS = (GateKind.INPUT,) + STATE_KINDS

#: ``good ^ faulty`` of a net carrying a D or D-bar (X is 2, so any
#: pair with an X gives 0, 2 or 3)
_D = 1

_CALLS = METRICS.counter("atpg.podem.calls")
_BACKTRACKS = METRICS.counter("atpg.podem.backtracks")
_DECISIONS = METRICS.counter("atpg.podem.decisions")
_ABORTS = METRICS.counter("atpg.podem.aborts")
_REDUNDANT = METRICS.counter("atpg.podem.redundant")


class PodemStatus(enum.Enum):
    DETECTED = "detected"
    REDUNDANT = "redundant"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    status: PodemStatus
    #: source assignment achieving detection (only for DETECTED);
    #: unassigned sources are free and may take any value
    assignment: Dict[str, int] = field(default_factory=dict)
    backtracks: int = 0
    #: total decision-tree assignments tried (first choices + flips)
    decisions: int = 0
    #: implication steps run by the search: the initial one, then one
    #: per decision or backtrack flip
    implications: int = 0
    #: objectives whose backtrace dead-ended, forcing a backtrack restart
    restarts: int = 0


def podem(
    netlist: GateNetlist,
    fault: Fault,
    assignable: Optional[Set[str]] = None,
    backtrack_limit: int = 200,
    extra_sites: Optional[Sequence[Fault]] = None,
) -> PodemResult:
    """Generate a test for ``fault`` or prove it redundant.

    ``assignable`` restricts which source gates PODEM may control
    (defaults to all inputs and flip-flops); non-assignable sources stay
    X, which is how time-frame expansion models the unknown initial
    state.  ``extra_sites`` injects the same physical fault at additional
    netlist locations (the frame copies produced by unrolling).
    """
    engine = _PodemEngine(netlist, fault, assignable, backtrack_limit, extra_sites or ())
    result = engine.search()
    _CALLS.inc()
    _BACKTRACKS.inc(result.backtracks)
    _DECISIONS.inc(result.decisions)
    if result.status is PodemStatus.ABORTED:
        _ABORTS.inc()
    elif result.status is PodemStatus.REDUNDANT:
        _REDUNDANT.inc()
    if ATTRIB.enabled:
        gate = engine.gates[fault.gate]
        if fault.pin is None:
            site = "stem"
        elif gate.kind in STATE_KINDS:
            site = "flop-pin"
        else:
            site = "pin"
        ATTRIB.podem_record({
            "backtracks": result.backtracks,
            "cone_depth": depth_levels(netlist).get(fault.gate, 0),
            "decisions": result.decisions,
            "gate": fault.gate,
            "gate_kind": gate.kind.value,
            "implications": result.implications,
            "netlist": netlist.name,
            "pin": fault.pin,
            "restarts": result.restarts,
            "site": site,
            "status": result.status.value,
            "stuck": fault.stuck,
        })
    return result


class _Topology:
    """Per-netlist engine state, shared by every PODEM call on one netlist.

    Built once per netlist revision (every fault and, for time-frame
    expansion, every frame copy reuses it) and read-only afterwards.
    """

    def __init__(self, netlist: GateNetlist) -> None:
        self.revision = netlist.revision
        gates = {name: netlist.gate(name) for name in netlist.names()}
        self.gates: Dict[str, Gate] = gates
        #: every gate in topological order, sources first; a gate's
        #: position here is its index
        self.order = levelize(netlist)
        self.index = {name: i for i, name in enumerate(self.order)}
        kinds = [gates[name].kind for name in self.order]
        self.fanins = [gates[name].fanins for name in self.order]
        #: per index: three-valued evaluator, None for an assignable source
        self.evaluate = [None if k in _ASSIGNABLE_KINDS else evaluator(k) for k in kinds]
        self.controlling = [CONTROLLING.get(k) for k in kinds]
        #: per index: may the gate join the D-frontier (an evaluated gate
        #: other than an OUTPUT marker)
        self.joins_frontier = [k not in SOURCE_KINDS and k is not GateKind.OUTPUT for k in kinds]
        #: assignable by default: inputs and flip-flops, not constants
        self.sources = frozenset(
            name for name, gate in gates.items() if gate.kind in _ASSIGNABLE_KINDS
        )
        self.constants = [
            self.index[name] for name, gate in gates.items()
            if gate.kind in (GateKind.CONST0, GateKind.CONST1)
        ]
        self.observe = frozenset(
            [g.name for g in netlist.outputs] + [flop.fanins[0] for flop in netlist.flops]
        )
        fanout = netlist.fanout_map()
        #: net -> indices of the gates whose value it feeds (a flip-flop
        #: holds its value, so it is no reader here)
        self.readers: Dict[str, Tuple[int, ...]] = {
            name: tuple(self.index[r] for r in fanout[name] if gates[r].kind not in STATE_KINDS)
            for name in gates
        }


#: netlist -> its engine state; an entry is stale once the netlist mutates
_TOPOLOGY: "WeakKeyDictionary[GateNetlist, _Topology]" = WeakKeyDictionary()


def _topology(netlist: GateNetlist) -> _Topology:
    topo = _TOPOLOGY.get(netlist)
    if topo is None or topo.revision != netlist.revision:
        topo = _TOPOLOGY[netlist] = _Topology(netlist)
    return topo


class _PodemEngine:
    def __init__(
        self,
        netlist: GateNetlist,
        fault: Fault,
        assignable: Optional[Set[str]],
        backtrack_limit: int,
        extra_sites: Sequence[Fault] = (),
    ) -> None:
        topo = _topology(netlist)
        self.topo = topo
        self.gates = topo.gates
        self.fault = fault
        self.backtrack_limit = backtrack_limit
        self.assignable = topo.sources if assignable is None else set(assignable)

        all_sites = [fault, *extra_sites]
        self.stem_sites = {f.gate: f.stuck for f in all_sites if f.pin is None}
        pin_sites = {(f.gate, f.pin): f.stuck for f in all_sites if f.pin is not None}
        #: gate -> [(pin, stuck)] forced into its faulty operands.  Only
        #: evaluated gates take them, and only on pins they have: a flop
        #: pin is observed at capture (see justify_only), and a flop's frame
        #: copies from ``unroll`` are an INPUT (frame 0) or a one-input BUF
        #: with no scan pins
        self.pin_sites: Dict[str, List[Tuple[int, int]]] = {}
        for (name, pin), stuck in pin_sites.items():
            i = topo.index[name]
            if topo.evaluate[i] is not None and pin < len(topo.fanins[i]):
                self.pin_sites.setdefault(name, []).append((pin, stuck))

        self.assignment: Dict[str, int] = {}
        self.good: Dict[str, int] = dict.fromkeys(topo.gates, X)
        self.faulty: Dict[str, int] = dict.fromkeys(topo.gates, X)
        #: indices of the D-frontier gates, and observed nets carrying a D
        self.frontier: Set[int] = set()
        self.d_observed: Set[str] = set()

        # a fault on a flop input pin is observed directly at capture: the
        # engine then only needs to *justify* the pin net to the non-stuck value
        gate = self.gates[fault.gate]
        if fault.pin is not None and fault.pin >= len(gate.fanins):
            raise AtpgError(f"{fault}: gate {fault.gate} ({gate.kind.value}) has no pin {fault.pin}")
        self.justify_only: Optional[Tuple[str, int]] = None
        if fault.pin is not None and gate.kind in STATE_KINDS:
            self.justify_only = (gate.fanins[fault.pin], v_not(fault.stuck))

    # ------------------------------------------------------------------
    # implication
    # ------------------------------------------------------------------
    def _imply(self, changed: Iterable[int]) -> None:
        """Bring the values up to date after the gates indexed by
        ``changed`` (sources whose assignment moved, or fault sites) did.

        Only readers of gates whose (good, faulty) pair changed are
        evaluated, in topological-index order, so the values equal a full
        pass.  The D-frontier and the observed D nets follow along: a
        gate's membership can only change when it is evaluated.
        """
        topo = self.topo
        good, faulty, assignment = self.good, self.faulty, self.assignment
        stem_sites, pin_sites = self.stem_sites, self.pin_sites
        order, fanins, evaluate = topo.order, topo.fanins, topo.evaluate
        readers, observe, joins = topo.readers, topo.observe, topo.joins_frontier
        frontier, d_observed = self.frontier, self.d_observed
        queue = sorted(set(changed))
        queued = set(queue)
        while queue:
            i = heappop(queue)
            name, ins, fn = order[i], fanins[i], evaluate[i]
            if fn is None:
                g = assignment.get(name, X)
                g_in = f_in = ()
            else:
                g_in = [good[s] for s in ins]
                f_in = [faulty[s] for s in ins]
                g = fn(g_in)
            f = stem_sites.get(name)
            if f is None:
                pins = pin_sites.get(name)
                if pins:
                    operands = list(f_in)
                    for pin, stuck in pins:
                        operands[pin] = stuck
                    f = fn(operands)
                else:
                    f = g if f_in == g_in else fn(f_in)
            if joins[i]:
                if (g == X or f == X) and f_in != g_in and any(
                    a ^ b == _D for a, b in zip(g_in, f_in)
                ):
                    frontier.add(i)
                else:
                    frontier.discard(i)
            if good[name] == g and faulty[name] == f:
                continue
            good[name], faulty[name] = g, f
            if name in observe:
                if g ^ f == _D:
                    d_observed.add(name)
                else:
                    d_observed.discard(name)
            for reader in readers[name]:
                if reader not in queued:
                    queued.add(reader)
                    heappush(queue, reader)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def _has_d(self, net: str) -> bool:
        return self.good[net] ^ self.faulty[net] == _D

    def _unknown(self, net: str) -> bool:
        return self.good[net] == X or self.faulty[net] == X

    def detected(self) -> bool:
        if self.justify_only is not None:
            net, value = self.justify_only
            return self.good[net] == value
        return bool(self.d_observed)

    def _activation_net(self) -> str:
        """The net whose good value must differ from the stuck value."""
        if self.fault.pin is None:
            return self.fault.gate
        return self.gates[self.fault.gate].fanins[self.fault.pin]

    def _xpath_exists(self) -> bool:
        """Can a D still reach an observation point through X nets?"""
        topo = self.topo
        stack = list(self.frontier)
        visited = set(stack)
        while stack:
            name = topo.order[stack.pop()]
            if name in topo.observe:
                return True
            for reader in topo.readers[name]:
                if reader in visited:
                    continue
                if not topo.joins_frontier[reader] or self._unknown(topo.order[reader]):
                    visited.add(reader)
                    stack.append(reader)
        return False

    # ------------------------------------------------------------------
    # objective and backtrace
    # ------------------------------------------------------------------
    def objective(self) -> Optional[Tuple[str, int]]:
        """Next (net, value) goal, or None if the fault is blocked."""
        if self.justify_only is not None:
            net, value = self.justify_only
            if self.good[net] == X:
                return (net, value)
            return None  # justified or conflicting; detected() decides

        activation = self._activation_net()
        desired = v_not(self.fault.stuck)
        if self.good[activation] == X:
            return (activation, desired)
        if self.good[activation] == self.fault.stuck:
            return None  # activation impossible under current assignment

        # a pin fault also needs the faulty gate's *other* pins sensitized
        # before a D appears at its output
        if self.fault.pin is not None and not self._has_d(self.fault.gate):
            goal = self._expose_pin_fault()
            if goal is not None:
                return goal
            if not self._unknown(self.fault.gate):
                return None  # output fully known and equal: fault masked here

        if not self.frontier:
            return None
        if not self._xpath_exists():
            return None
        # try frontier gates closest to an output first; the objective must
        # target an input that is X in the *good* machine (backtrace steers
        # good values -- faulty-only X inputs resolve via implication)
        for i in sorted(self.frontier, reverse=True):
            controlling = self.topo.controlling[i]
            for source in self.topo.fanins[i]:
                if self.good[source] == X:
                    if controlling is not None:
                        return (source, v_not(controlling))
                    return (source, ZERO)
        return None

    def _expose_pin_fault(self) -> Optional[Tuple[str, int]]:
        """Objective making the faulty gate's output show the pin difference."""
        gate = self.gates[self.fault.gate]
        pin = self.fault.pin
        assert pin is not None
        if gate.kind is GateKind.MUX2:
            d0, d1, select = gate.fanins
            if pin in (0, 1):
                # route the faulty data pin: select must equal the pin index
                if self.good[select] == X:
                    return (select, ONE if pin == 1 else ZERO)
                return None
            # select-pin fault: the two data legs must differ
            if self.good[d0] == X and self.good[d1] != X:
                return (d0, v_not(self.good[d1]))
            if self.good[d1] == X and self.good[d0] != X:
                return (d1, v_not(self.good[d0]))
            if self.good[d0] == X:
                return (d0, ZERO)
            return None
        controlling = CONTROLLING.get(gate.kind)
        for index, source in enumerate(gate.fanins):
            if index == pin:
                continue
            if self.good[source] == X:
                if controlling is not None:
                    return (source, v_not(controlling))
                return (source, ZERO)
        return None

    def backtrace(self, net: str, value: int) -> Optional[Tuple[str, int]]:
        """Walk the objective back to an unassigned assignable source."""
        current, target = net, value
        for _ in range(len(self.gates) + 1):
            gate = self.gates[current]
            kind = gate.kind
            if kind in _ASSIGNABLE_KINDS:
                if current in self.assignable and current not in self.assignment:
                    return (current, target)
                return None
            if kind in (GateKind.CONST0, GateKind.CONST1):
                return None
            if kind in (GateKind.BUF, GateKind.OUTPUT):
                current = gate.fanins[0]
                continue
            if kind is GateKind.NOT:
                current, target = gate.fanins[0], v_not(target)
                continue
            if kind in (GateKind.AND, GateKind.NAND, GateKind.OR, GateKind.NOR):
                if kind in (GateKind.NAND, GateKind.NOR):
                    target = v_not(target)
                controlling = CONTROLLING[GateKind.AND if kind in (GateKind.AND, GateKind.NAND) else GateKind.OR]
                unknowns = [s for s in gate.fanins if self.good[s] == X]
                if not unknowns:
                    return None
                if target == controlling:
                    current = unknowns[0]  # one controlling input suffices
                    target = controlling
                else:
                    current = unknowns[0]  # all inputs must be non-controlling
                    target = v_not(controlling)
                continue
            if kind in (GateKind.XOR, GateKind.XNOR):
                a, b = gate.fanins
                if kind is GateKind.XNOR:
                    target = v_not(target)
                if self.good[a] == X:
                    other = self.good[b]
                    current, target = a, (target if other in (ZERO, X) else v_not(target))
                elif self.good[b] == X:
                    other = self.good[a]
                    current, target = b, (target if other in (ZERO, X) else v_not(target))
                else:
                    return None
                continue
            if kind is GateKind.MUX2:
                d0, d1, select = gate.fanins
                select_value = self.good[select]
                if select_value == ZERO:
                    current = d0
                elif select_value == ONE:
                    current = d1
                elif self.good[d0] == target and self.good[d0] != X:
                    current, target = select, ZERO
                elif self.good[d1] == target and self.good[d1] != X:
                    current, target = select, ONE
                elif self.good[d0] == X:
                    current = d0
                elif self.good[d1] == X:
                    current, target = select, ONE
                else:
                    current, target = select, ZERO
                continue
            raise AtpgError(f"backtrace cannot handle gate kind {kind}")
        raise AtpgError("backtrace did not terminate (cyclic netlist?)")

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def search(self) -> PodemResult:
        backtracks = 0
        tried = 0
        implications = 0
        restarts = 0
        decisions: List[Tuple[str, int, bool]] = []  # (source, value, both_tried)
        # from the all-X start only constants and fault sites move: a gate
        # whose inputs are all X outputs X
        sites = [*self.stem_sites, *self.pin_sites]
        self._imply([*self.topo.constants, *(self.topo.index[s] for s in sites)])
        implications += 1
        while True:
            if self.detected():
                return PodemResult(
                    PodemStatus.DETECTED, dict(self.assignment), backtracks,
                    tried, implications, restarts,
                )

            step: Optional[Tuple[str, int]] = None
            goal = self.objective()
            if goal is not None:
                step = self.backtrace(*goal)
                if step is None:
                    restarts += 1

            if step is not None:
                source, value = step
                decisions.append((source, value, False))
                self.assignment[source] = value
                tried += 1
                self._imply((self.topo.index[source],))
                implications += 1
                continue

            # conflict: backtrack
            flipped = False
            undone: List[str] = []
            while decisions:
                source, value, both_tried = decisions.pop()
                del self.assignment[source]
                undone.append(source)
                if not both_tried:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return PodemResult(
                            PodemStatus.ABORTED, {}, backtracks, tried,
                            implications, restarts,
                        )
                    decisions.append((source, v_not(value), True))
                    self.assignment[source] = v_not(value)
                    tried += 1
                    flipped = True
                    break
            if not flipped:
                return PodemResult(
                    PodemStatus.REDUNDANT, {}, backtracks, tried,
                    implications, restarts,
                )
            self._imply([self.topo.index[s] for s in undone])
            implications += 1

"""Differential tests: event-driven PODEM implication vs. a full pass.

The engine updates only the readers of nets whose (good, faulty) pair
changed and tracks the D-frontier and the observed D nets incrementally.
The reference here re-simulates the whole netlist and rescans both sets
on every implication step, as a plain PODEM would.  On random netlists
with flip-flops, constants, random assignable subsets and time-frame
copies, the two must agree on every search statistic, and the
event-driven values must equal a full pass after every single step.
"""

import itertools
import random

import pytest

from repro.atpg import SequentialAtpg, unroll
from repro.atpg.podem import PodemStatus, _PodemEngine, _topology, podem
from repro.atpg.values import ONE, X, ZERO, evaluator
from repro.errors import AtpgError
from repro.faults import Fault, collapse_faults, full_fault_universe
from repro.gates import GateKind, GateNetlist
from repro.gates.cells import SOURCE_KINDS, STATE_KINDS
from repro.gates.levelize import levelize

_KINDS2 = [GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR, GateKind.XOR, GateKind.XNOR]
_WIDE = [GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR]


# ----------------------------------------------------------------------
# reference: full re-simulation, written independently of values.EVAL3
# ----------------------------------------------------------------------
def _ref_eval(kind, ops):
    if kind in (GateKind.BUF, GateKind.OUTPUT):
        return ops[0]
    if kind is GateKind.NOT:
        return X if ops[0] == X else 1 - ops[0]
    if kind in _WIDE:
        control = ZERO if kind in (GateKind.AND, GateKind.NAND) else ONE
        if control in ops:
            out = control
        elif X in ops:
            return X
        else:
            out = 1 - control
        return 1 - out if kind in (GateKind.NAND, GateKind.NOR) else out
    if kind in (GateKind.XOR, GateKind.XNOR):
        if X in ops:
            return X
        out = ops[0] ^ ops[1]
        return 1 - out if kind is GateKind.XNOR else out
    if kind is GateKind.MUX2:
        d0, d1, select = ops
        if select == X:
            return d0 if d0 == d1 else X
        return d1 if select == ONE else d0
    if kind is GateKind.CONST0:
        return ZERO
    if kind is GateKind.CONST1:
        return ONE
    raise AssertionError(kind)


def _has_d(good, faulty, net):
    return X not in (good[net], faulty[net]) and good[net] != faulty[net]


def full_pass(engine, sites):
    """(good, faulty, frontier names, observed D nets) over the whole netlist."""
    netlist = engine.netlist
    stem = {f.gate: f.stuck for f in sites if f.pin is None}
    pins = {(f.gate, f.pin): f.stuck for f in sites if f.pin is not None}
    good, faulty = {}, {}
    order = []
    for name in levelize(netlist):
        gate = netlist.gate(name)
        if gate.kind in (GateKind.INPUT,) + STATE_KINDS:
            good[name] = engine.assignment.get(name, X)
        elif gate.kind in SOURCE_KINDS:
            good[name] = _ref_eval(gate.kind, ())
        else:
            order.append(name)
            good[name] = _ref_eval(gate.kind, [good[s] for s in gate.fanins])
        if name in stem:
            faulty[name] = stem[name]
        elif gate.kind in SOURCE_KINDS:
            faulty[name] = good[name]
        else:
            operands = [pins.get((name, p), faulty[s]) for p, s in enumerate(gate.fanins)]
            faulty[name] = _ref_eval(gate.kind, operands)
    frontier = {
        name for name in order
        if netlist.gate(name).kind is not GateKind.OUTPUT
        and X in (good[name], faulty[name])
        and any(_has_d(good, faulty, s) for s in netlist.gate(name).fanins)
    }
    observe = {g.name for g in netlist.outputs} | {f.fanins[0] for f in netlist.flops}
    observed = {net for net in observe if _has_d(good, faulty, net)}
    return good, faulty, frontier, observed


class _FullPassEngine(_PodemEngine):
    """PODEM whose every implication is a full pass plus full rescans."""

    def __init__(self, netlist, fault, assignable, limit, extra_sites=()):
        super().__init__(netlist, fault, assignable, limit, extra_sites)
        self.netlist = netlist
        self.sites = [fault, *extra_sites]

    def _imply(self, changed):
        self.good, self.faulty, frontier, self.d_observed = full_pass(self, self.sites)
        self.frontier = {self.topo.index[name] for name in frontier}


class _CheckedEngine(_PodemEngine):
    """The event-driven engine, compared with a full pass after each step."""

    def __init__(self, netlist, fault, assignable, limit, extra_sites=()):
        super().__init__(netlist, fault, assignable, limit, extra_sites)
        self.netlist = netlist
        self.sites = [fault, *extra_sites]
        self.steps = 0

    def _imply(self, changed):
        super()._imply(changed)
        self.steps += 1
        good, faulty, frontier, observed = full_pass(self, self.sites)
        assert self.good == good, f"good values diverge at step {self.steps}"
        assert self.faulty == faulty, f"faulty values diverge at step {self.steps}"
        assert {self.topo.order[i] for i in self.frontier} == frontier
        assert self.d_observed == observed


# ----------------------------------------------------------------------
# random netlists with flip-flops and constants
# ----------------------------------------------------------------------
def random_sequential_netlist(seed: int) -> GateNetlist:
    rng = random.Random(seed)
    n = GateNetlist(f"s{seed}")
    nets = [n.add_gate(f"i{i}", GateKind.INPUT) for i in range(rng.randint(2, 5))]
    flops = []
    for i in range(rng.randint(1, 3)):
        kind = rng.choice(STATE_KINDS)
        flops.append((f"q{i}", kind))
        nets.append(f"q{i}")
    if rng.random() < 0.4:
        nets.append(n.add_gate("k", rng.choice([GateKind.CONST0, GateKind.CONST1])))
    for i in range(rng.randint(4, 16)):
        roll = rng.random()
        if roll < 0.2:
            kind, fanins = rng.choice([GateKind.NOT, GateKind.BUF]), [rng.choice(nets)]
        elif roll < 0.35:
            kind, fanins = GateKind.MUX2, [rng.choice(nets) for _ in range(3)]
        elif roll < 0.5:
            kind = rng.choice(_WIDE)
            fanins = [rng.choice(nets) for _ in range(rng.randint(3, 4))]
        else:
            kind, fanins = rng.choice(_KINDS2), [rng.choice(nets), rng.choice(nets)]
        nets.append(n.add_gate(f"g{i}", kind, fanins))
    combinational = [name for name in nets if name.startswith("g")]
    for name, kind in flops:
        d = rng.choice(combinational)
        if kind is GateKind.SDFF:
            n.add_gate(name, kind, [d, rng.choice(nets[:2]), rng.choice(nets[:2])])
        else:
            n.add_gate(name, kind, [d])
    for i, net in enumerate(combinational[-2:]):
        n.add_gate(f"O{i}", GateKind.OUTPUT, [net])
    return n.validate()


def scan_flop_netlist() -> GateNetlist:
    """A DFF whose D net fans out further and two SDFFs sharing nets."""
    n = GateNetlist("scanflops")
    for name in ("a", "b", "si", "se"):
        n.add_gate(name, GateKind.INPUT)
    n.add_gate("d", GateKind.NAND, ["a", "b"])
    n.add_gate("q0", GateKind.DFF, ["d"])
    n.add_gate("e", GateKind.AND, ["d", "si"])
    n.add_gate("q1", GateKind.SDFF, ["e", "si", "se"])
    n.add_gate("q2", GateKind.SDFF, ["q0", "q1", "se"])
    n.add_gate("h", GateKind.OR, ["q0", "q1"])
    n.add_gate("k", GateKind.NAND, ["e", "q2"])
    n.add_gate("O0", GateKind.OUTPUT, ["d"])
    n.add_gate("O1", GateKind.OUTPUT, ["h"])
    n.add_gate("O2", GateKind.OUTPUT, ["k"])
    return n.validate()


def fault_sample(netlist: GateNetlist, rng: random.Random, count: int):
    faults = full_fault_universe(netlist)
    # sites outside the enumerated universe still follow the injection rules
    for gate in netlist.gates():
        if gate.kind in (GateKind.CONST0, GateKind.CONST1):
            faults.append(Fault(gate.name, None, rng.randint(0, 1)))
        elif gate.kind is GateKind.OUTPUT:
            faults.append(Fault(gate.name, 0, rng.randint(0, 1)))
    return rng.sample(faults, min(count, len(faults)))


def _run(engine_class, netlist, fault, assignable=None, limit=40, extra=()):
    return engine_class(netlist, fault, assignable, limit, extra).search()


def _assert_same(netlist, fault, assignable=None, limit=40, extra=()):
    reference = _run(_FullPassEngine, netlist, fault, assignable, limit, extra)
    checked = _run(_CheckedEngine, netlist, fault, assignable, limit, extra)
    plain = _run(_PodemEngine, netlist, fault, assignable, limit, extra)
    assert plain == reference, f"{fault} on {netlist.name}"
    assert checked == reference
    return reference


class TestEventDrivenMatchesFullPass:
    @pytest.mark.parametrize("seed", range(40))
    def test_full_scan_view(self, seed):
        netlist = random_sequential_netlist(seed)
        rng = random.Random(seed)
        for fault in fault_sample(netlist, rng, 12):
            _assert_same(netlist, fault)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_assignable_subsets(self, seed):
        netlist = random_sequential_netlist(1000 + seed)
        rng = random.Random(seed)
        sources = sorted(g.name for g in netlist.inputs + netlist.flops)
        for fault in fault_sample(netlist, rng, 8):
            assignable = set(rng.sample(sources, rng.randint(0, len(sources))))
            _assert_same(netlist, fault, assignable=assignable)

    @pytest.mark.parametrize("seed", range(25))
    def test_unrolled_frame_copies(self, seed):
        netlist = random_sequential_netlist(2000 + seed)
        rng = random.Random(seed)
        expansion = unroll(netlist, rng.randint(2, 3))
        assignable = {
            g.name for g in expansion.netlist.inputs
            if g.name not in expansion.initial_state_inputs
        }
        for fault in fault_sample(netlist, rng, 6):
            copies = [expansion.frame_fault(k, fault) for k in range(expansion.frames)]
            if fault.pin is not None and fault.pin >= len(
                expansion.netlist.gate(copies[-1].gate).fanins
            ):
                # an SDFF scan pin has no counterpart in a frame copy
                with pytest.raises(AtpgError, match="has no pin"):
                    podem(expansion.netlist, copies[-1], assignable, extra_sites=copies[:-1])
                continue
            _assert_same(
                expansion.netlist, copies[-1], assignable=assignable, extra=copies[:-1]
            )

    def test_flop_pin_faults_on_frame_copies(self):
        # a flop's frame copies are an INPUT (frame 0) and one-input BUFs,
        # so its D-pin fault lands on both and its scan-pin faults on pins
        # the copies do not have; every such copy is an extra site here
        expansion = unroll(scan_flop_netlist(), 2)
        assignable = {
            g.name for g in expansion.netlist.inputs
            if g.name not in expansion.initial_state_inputs
        }
        statuses = set()
        for gate, pins in (("q0", 1), ("q1", 3), ("q2", 3)):
            for stuck in (0, 1):
                copies = [
                    expansion.frame_fault(k, Fault(gate, pin, stuck))
                    for k in range(2) for pin in range(pins)
                ]
                for target in ("f1::d", "f1::e", "f1::h"):
                    fault = Fault(target, None, 1 - stuck)
                    result = _assert_same(
                        expansion.netlist, fault, assignable=assignable, extra=copies
                    )
                    statuses.add(result.status)
                # the D-pin copy of the last frame as the target
                result = _assert_same(
                    expansion.netlist, copies[pins], assignable=assignable,
                    extra=copies[:pins] + copies[pins + 1:],
                )
                statuses.add(result.status)
        assert statuses == {PodemStatus.DETECTED, PodemStatus.REDUNDANT}

    def test_sequential_atpg_with_flop_pin_faults(self):
        n = scan_flop_netlist()
        universe = collapse_faults(n, full_fault_universe(n))
        flop_pins = [f for f in universe if f.gate in ("q1", "q2") and f.pin is not None]
        # nets with fanout > 1 keep the SDFF pin faults uncollapsed
        assert {(f.gate, f.pin) for f in flop_pins} == set(itertools.product(("q1", "q2"), range(3)))
        outcome = SequentialAtpg(n, random_sequences=1, sequence_length=1, frames=2).run(universe)
        assert outcome.report.total == len(universe)
        assert outcome.deterministic_detected > 0
        undetected = set(outcome.report.undetected_faults)
        assert {f for f in flop_pins if f.pin != 0} <= undetected

    def test_aborts_and_redundancies_are_exercised(self):
        statuses = set()
        for seed in range(40):
            netlist = random_sequential_netlist(seed)
            for fault in fault_sample(netlist, random.Random(seed), 12):
                statuses.add(_run(_PodemEngine, netlist, fault, limit=2).status)
        assert statuses == set(PodemStatus)


class TestTopologyCache:
    def _and_gate(self):
        n = GateNetlist("cache")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("b", GateKind.INPUT)
        n.add_gate("g", GateKind.AND, ["a", "b"])
        n.add_gate("O", GateKind.OUTPUT, ["g"])
        return n.validate()

    def test_reused_across_calls(self):
        n = self._and_gate()
        podem(n, Fault("g", None, 0))
        first = _topology(n)
        podem(n, Fault("g", None, 1))
        assert _topology(n) is first

    def test_replace_gate_invalidates(self):
        n = self._and_gate()
        fault = Fault("g", None, 0)
        before = podem(n, fault)
        assert before.assignment == {"a": 1, "b": 1}
        stale = _topology(n)
        n.replace_gate("g", GateKind.OR, ["a", "b"])
        after = podem(n, fault)
        assert _topology(n) is not stale
        assert after.assignment == {"a": 1}
        assert after == podem(n.copy(), fault)

    def test_add_gate_invalidates(self):
        n = self._and_gate()
        podem(n, Fault("g", None, 0))
        n.add_gate("c", GateKind.INPUT)
        n.add_gate("h", GateKind.XOR, ["g", "c"])
        n.add_gate("P", GateKind.OUTPUT, ["h"])
        result = podem(n, Fault("h", None, 0))
        assert result.status is PodemStatus.DETECTED
        assert "c" in _topology(n).sources


class TestGateEvaluation:
    @pytest.mark.parametrize("kind", [
        GateKind.BUF, GateKind.OUTPUT, GateKind.NOT, GateKind.AND, GateKind.NAND,
        GateKind.OR, GateKind.NOR, GateKind.XOR, GateKind.XNOR, GateKind.MUX2,
    ])
    def test_table_matches_reference(self, kind):
        arities = {GateKind.BUF: [1], GateKind.OUTPUT: [1], GateKind.NOT: [1],
                   GateKind.XOR: [2], GateKind.XNOR: [2], GateKind.MUX2: [3]}
        for arity in arities.get(kind, [2, 3]):
            for ops in itertools.product([ZERO, ONE, X], repeat=arity):
                assert evaluator(kind)(ops) == _ref_eval(kind, ops), (kind, ops)

    def test_constants(self):
        assert evaluator(GateKind.CONST0)(()) == ZERO
        assert evaluator(GateKind.CONST1)(()) == ONE

    @pytest.mark.parametrize("kind", [GateKind.INPUT, GateKind.DFF, GateKind.SDFF])
    def test_sources_have_no_evaluator(self, kind):
        with pytest.raises(ValueError):
            evaluator(kind)

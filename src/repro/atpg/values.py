"""Three-valued (0/1/X) logic used by PODEM's implication engine.

The fault machine is simulated as a *pair* of three-valued machines
(good, faulty); a net carries a D when good=1/faulty=0 and a D-bar when
good=0/faulty=1.  Values are small ints: 0, 1, and 2 for X.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.gates.cells import GateKind

ZERO, ONE, X = 0, 1, 2

#: three-valued evaluator of one gate: operand values -> output value
Evaluator = Callable[[Sequence[int]], int]


#: value -> its complement, indexed by the value itself
_INVERTED = (ONE, ZERO, X)


def v_not(a: int) -> int:
    return _INVERTED[a]


def _buf(ops: Sequence[int]) -> int:
    return ops[0]


def _not(ops: Sequence[int]) -> int:
    return _INVERTED[ops[0]]


def _and(ops: Sequence[int]) -> int:
    if ZERO in ops:
        return ZERO
    return X if X in ops else ONE


def _nand(ops: Sequence[int]) -> int:
    if ZERO in ops:
        return ONE
    return X if X in ops else ZERO


def _or(ops: Sequence[int]) -> int:
    if ONE in ops:
        return ONE
    return X if X in ops else ZERO


def _nor(ops: Sequence[int]) -> int:
    if ONE in ops:
        return ZERO
    return X if X in ops else ONE


def _xor(ops: Sequence[int]) -> int:
    a, b = ops
    return X if a == X or b == X else a ^ b


def _xnor(ops: Sequence[int]) -> int:
    a, b = ops
    return X if a == X or b == X else 1 - (a ^ b)


def _mux2(ops: Sequence[int]) -> int:
    d0, d1, select = ops
    if select == ZERO or d0 == d1:
        return d0
    if select == ONE:
        return d1
    return X


def _const0(ops: Sequence[int]) -> int:
    return ZERO


def _const1(ops: Sequence[int]) -> int:
    return ONE


#: the one three-valued gate definition: kind -> evaluator.  Sources
#: (inputs, flip-flops) have no entry -- their value is an assignment.
EVAL3: Dict[GateKind, Evaluator] = {
    GateKind.BUF: _buf,
    GateKind.OUTPUT: _buf,
    GateKind.NOT: _not,
    GateKind.AND: _and,
    GateKind.NAND: _nand,
    GateKind.OR: _or,
    GateKind.NOR: _nor,
    GateKind.XOR: _xor,
    GateKind.XNOR: _xnor,
    GateKind.MUX2: _mux2,
    GateKind.CONST0: _const0,
    GateKind.CONST1: _const1,
}


def evaluator(kind: GateKind) -> Evaluator:
    """The three-valued evaluator of ``kind``; ValueError if it has none."""
    try:
        return EVAL3[kind]
    except KeyError:
        raise ValueError(f"cannot evaluate kind {kind} in three-valued logic") from None


#: controlling input value per gate kind (None if the kind has none)
CONTROLLING = {
    GateKind.AND: ZERO,
    GateKind.NAND: ZERO,
    GateKind.OR: ONE,
    GateKind.NOR: ONE,
}

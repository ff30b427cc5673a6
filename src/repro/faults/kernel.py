"""Vectorized fault grading over compiled netlist programs.

The scalar fault simulator (:mod:`repro.faults.simulator`) is the
bit-identity *oracle*: this module reproduces its decisions -- the same
detected/undetected fault lists in the same order, the same
``first_detection`` indices, and the same ``faultsim.*`` counter values
-- while doing the arithmetic as dense numpy sweeps.

Combinational grading keeps the scalar path's batch structure (64
patterns per batch, fault dropping between batches -- anything coarser
would change which faults are still alive when) but replaces its
per-fault work with whole-fault-list vector ops: one gather computes
every stem fault's activation, one padded gather per gate kind computes
every pin fault's forced value, and only the faults that actually
activate enter a dense ``(faults, rows, words)`` propagation cube that
runs the compiled program once with per-fault row forcing between
levels.  A cheap replay of the scalar batch loop then re-derives the
exact counters and orderings -- including ``faultsim.cone.*``, by
touching the simulator's real cone cache precisely when the scalar
activation checks would have.

Sequential grading runs the good machine once, then each chunk of up to
``FAULT_CHUNK`` faults cycle by cycle with carried per-fault state,
mirroring the scalar per-fault :class:`SequentialSimulator` semantics
(flop input-pin faults are inert there; every other fault is forced
every cycle).  The faulty machines share one ``(rows, Wg * F)`` value
plane with the fault index innermost -- column ``w * F + f`` is word
``w`` of fault ``f`` -- so every row gather of the compiled program
copies contiguous runs.  Faults are forced per (level, gate kind)
group with one gather and one vector gate evaluation: a stem fault
reads the reserved constant row of its stuck value, and a pin fault
re-evaluates its gate with the stuck pin reading that row.  The pin
correction gathers from the *faulty* plane, not the good one: a fault
corrupts flop state, and that state feeds back into the faulted gate's
other inputs in later cycles.  After each cycle's primary-output
comparison the detected faults' cycles are recorded and their columns
dropped from the plane and the carried state, so later cycles evaluate
only the faults still alive.

One documented divergence: the scalar path discovers a pattern that
misses a source lazily, batch by batch, so on malformed input it may
raise about a different source than the kernel (which packs name-major).
Well-formed pattern sets behave identically.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.faults.simulator import (
    FaultSimResult,
    Pattern,
    _lowest_bit,
    attrib_cone_profile,
    attrib_netlist_profile,
)
from repro.gates.cells import STATE_KINDS, GateKind
from repro.gates.kernel import (
    ALL_ONES,
    CompiledProgram,
    _PAD_ROW,
    ONE_ROW,
    ZERO_ROW,
    compiled_program,
    eval_group_ops,
    int_to_words,
    tail_masks,
    word_count,
)
from repro.gates.netlist import GateNetlist
from repro.obs import METRICS
from repro.obs.attrib import ATTRIB

# the scalar simulator's instruments, shared by name so both backends
# advance the very same counters
_BATCHES = METRICS.counter("faultsim.batches")
_EVENTS = METRICS.counter("faultsim.events")
_DROPPED = METRICS.counter("faultsim.faults.dropped")
_CONE_REUSES = METRICS.counter("faultsim.cone.reuses")

#: faults evaluated per dense propagation sweep (bounds the value cube)
FAULT_CHUNK = 1024

# fault plan kinds
_STEM = 0  # output-stem fault: force the gate's row to the stuck word
_PIN = 1  # combinational input-pin fault: recompute the gate with one pin forced
_FLOP_PIN = 2  # flop input-pin fault: special-cased by the scalar simulator


class _Plan:
    """Per-fault lowering: how to force one fault into the value cube."""

    __slots__ = (
        "fault", "kind", "row", "level", "stuck", "gate_kind", "fanin_rows",
        "pin", "pin_row", "src_row",
    )

    def __init__(self, program: CompiledProgram, fault: Fault) -> None:
        gate = program.netlist.gate(fault.gate)
        self.fault = fault
        self.stuck = np.uint64(ALL_ONES if fault.stuck else 0)
        self.row = program.row[fault.gate]
        self.level = program.level[fault.gate]
        self.gate_kind = gate.kind
        self.fanin_rows = None
        self.pin = fault.pin
        self.pin_row = -1
        self.src_row = -1
        if fault.pin is None:
            self.kind = _STEM
        elif gate.kind in STATE_KINDS:
            self.kind = _FLOP_PIN
            self.src_row = program.row[gate.fanins[fault.pin]]
        else:
            self.kind = _PIN
            self.fanin_rows = np.array(
                [program.row[f] for f in gate.fanins], dtype=np.intp
            )
            self.pin_row = int(self.fanin_rows[fault.pin])


class _PinGroup:
    """All combinational pin faults of one gate kind, padded to one arity.

    One gather + one vector gate evaluation yields every group member's
    forced output word at once (the combinational shortcut: a pin
    fault's gate reads only fault-free upstream values, so the forced
    output is computable from the good plane alone).  Sequential grading
    reuses the padded fanin rows but gathers from the faulty plane.
    """

    __slots__ = ("kind", "idx", "fanin_rows", "pin_slot", "pin_rows", "out_rows", "stuck")

    def __init__(self, kind: GateKind, plans: List[Tuple[int, _Plan]]) -> None:
        arity = max(len(plan.fanin_rows) for _, plan in plans)
        pad = _PAD_ROW.get(kind, ZERO_ROW)
        self.kind = kind
        self.idx = np.array([i for i, _ in plans], dtype=np.intp)
        self.fanin_rows = np.full((len(plans), arity), pad, dtype=np.intp)
        for j, (_, plan) in enumerate(plans):
            self.fanin_rows[j, : len(plan.fanin_rows)] = plan.fanin_rows
        self.pin_slot = np.array([plan.pin for _, plan in plans], dtype=np.intp)
        self.pin_rows = np.array([plan.pin_row for _, plan in plans], dtype=np.intp)
        self.out_rows = np.array([plan.row for _, plan in plans], dtype=np.intp)
        self.stuck = np.array([plan.stuck for _, plan in plans], dtype=np.uint64)


def grade_combinational(
    fsim, patterns: Sequence[Pattern], faults: Sequence[Fault]
) -> FaultSimResult:
    """Numpy-backend equivalent of :meth:`FaultSimulator._run`.

    ``fsim`` is the :class:`FaultSimulator` whose netlist, observe set,
    and cone cache define the grading; decisions and counters match its
    scalar path bit for bit.
    """
    netlist: GateNetlist = fsim.netlist
    program = compiled_program(netlist)
    result = FaultSimResult(total=len(faults))
    alive: List[Fault] = list(faults)
    if not patterns:
        result.undetected = alive
        return result
    if not alive:
        # the scalar loop grades one batch before noticing it has no faults
        _BATCHES.inc()
        if ATTRIB.enabled:
            ATTRIB.sim_good(attrib_netlist_profile(netlist))
        return result

    # ---- static per-fault lowering (one plan per distinct fault,
    # cached on the program: ATPG re-grades the same universe often) ----
    plan_cache = program.plan_cache
    plan_of: Dict[Fault, int] = {}
    plan_list: List[_Plan] = []
    cone_keys: List[Tuple] = []
    observe_key = fsim._observe_key
    for fault in alive:
        if fault not in plan_of:
            plan = plan_cache.get(fault)
            if plan is None:
                plan = plan_cache[fault] = _Plan(program, fault)
            plan_of[fault] = len(plan_list)
            plan_list.append(plan)
            cone_keys.append((observe_key, fault.gate))
    n_plans = len(plan_list)
    alive_idx: List[int] = [plan_of[fault] for fault in alive]

    stems = [(i, p) for i, p in enumerate(plan_list) if p.kind is _STEM]
    flops = [(i, p) for i, p in enumerate(plan_list) if p.kind is _FLOP_PIN]
    stem_idx = np.array([i for i, _ in stems], dtype=np.intp)
    stem_rows = np.array([p.row for _, p in stems], dtype=np.intp)
    stem_stuck = np.array([p.stuck for _, p in stems], dtype=np.uint64)
    flop_idx = np.array([i for i, _ in flops], dtype=np.intp)
    flop_rows = np.array([p.src_row for _, p in flops], dtype=np.intp)
    flop_stuck = np.array([p.stuck for _, p in flops], dtype=np.uint64)
    by_kind: Dict[GateKind, List[Tuple[int, _Plan]]] = {}
    for i, plan in enumerate(plan_list):
        if plan.kind is _PIN:
            by_kind.setdefault(plan.gate_kind, []).append((i, plan))
    pin_groups = [_PinGroup(kind, plans) for kind, plans in by_kind.items()]

    rows_of = np.array([p.row for p in plan_list], dtype=np.intp)
    levels_of = np.array([p.level for p in plan_list], dtype=np.intp)
    obs_rows = np.array(
        sorted(program.row[name] for name in fsim._observe if name in program.row),
        dtype=np.intp,
    )
    cone_cache = fsim._cone_cache

    # ---- good machine, all batches in one wide evaluation ----
    # (the scalar path re-simulates per 64-pattern batch; the good
    # machine has no dropping dependency, so one W-word pass is exact)
    total = len(patterns)
    W = word_count(total)
    good_all = program.new_values(W)
    for name in program.source_names:
        word = 0
        for position, pattern in enumerate(patterns):
            try:
                if pattern[name]:
                    word |= 1 << position
            except KeyError:
                raise SimulationError(
                    f"pattern misses source {name!r}"
                ) from None
        good_all[program.row[name], :] = int_to_words(word, W)
    program.eval(good_all)

    # ---- activation + forced output value, every fault x every word ----
    masks_all = tail_masks(total)
    act = np.zeros((n_plans, W), dtype=bool)
    detect = np.zeros((n_plans, W), dtype=np.uint64)
    forced = np.zeros((n_plans, W), dtype=np.uint64)
    if len(stem_idx):
        gv = good_all[stem_rows, :]
        act[stem_idx] = ((gv ^ stem_stuck[:, None]) & masks_all) != 0
        forced[stem_idx] = stem_stuck[:, None]
    if len(flop_idx):
        # observed directly at scan capture; never activates a cone
        detect[flop_idx] = (good_all[flop_rows, :] ^ flop_stuck[:, None]) & masks_all
    for group in pin_groups:
        ops = good_all[group.fanin_rows, :]
        ops[np.arange(len(group.idx)), group.pin_slot, :] = group.stuck[:, None]
        fv = eval_group_ops(group.kind, ops)
        act[group.idx] = (
            (((good_all[group.pin_rows, :] ^ group.stuck[:, None]) & masks_all) != 0)
            & (((fv ^ good_all[group.out_rows, :]) & masks_all) != 0)
        )
        forced[group.idx] = fv

    def dense_sweep(need: List[int], w0: int, w1: int) -> None:
        """Propagate faults ``need`` over words [w0, w1) into ``detect``.

        Runs the fault batch through the compiled program as a
        ``(F, rows, words)`` cube: each fault's row is forced to its
        faulty value between levels, everything downstream re-evaluates,
        and the detect word is the OR over observed rows of (faulty XOR
        good).  Nets outside the fault's fanout cone see identical
        inputs and contribute exactly zero, so no explicit cone masking
        is needed for bit-identity with the scalar overlay propagation.
        """
        Wc = w1 - w0
        plane = good_all[:, w0:w1]
        # cap the cube around ~64 MB so wide pattern sets stay in cache
        cap = max(16, min(FAULT_CHUNK, (64 << 20) // (program.rows * Wc * 8)))
        for start in range(0, len(need), cap):
            sel = np.array(need[start : start + cap], dtype=np.intp)
            cube = np.broadcast_to(plane, (len(sel),) + plane.shape).copy()
            lv, rw, fv = levels_of[sel], rows_of[sel], forced[sel][:, w0:w1]
            by_level: Dict[int, Tuple] = {}
            for level in np.unique(lv):
                at = lv == level
                by_level[int(level)] = (np.nonzero(at)[0], rw[at], fv[at])

            def force(level: int, values) -> None:
                entry = by_level.get(level)
                if entry is not None:
                    idx, frows, fvals = entry
                    values[idx, frows, :] = fvals

            program.eval(cube, after_level=force)
            if len(obs_rows):
                diff = cube[:, obs_rows, :] ^ plane[obs_rows, :]
                detect[sel, w0:w1] = (
                    np.bitwise_or.reduce(diff, axis=1) & masks_all[w0:w1]
                )

    # Word 0 sees every fault, but most die there under random patterns,
    # so it gets a narrow one-word sweep; the survivors (the hard
    # faults) then get all remaining words in one wide sweep.
    dense_sweep(list(dict.fromkeys(i for i in alive_idx if act[i, 0])), 0, 1)
    swept_tail = W == 1

    # ---- replay the scalar batch loop for counters and ordering ----
    for w in range(W):
        batch_start = w * 64
        count = min(64, total - batch_start)
        if w and not swept_tail:
            tail = act[:, w:].any(axis=1)
            dense_sweep(list(dict.fromkeys(i for i in alive_idx if tail[i])), 1, W)
            swept_tail = True
        act_col = act[:, w].tolist()
        det_col = detect[:, w].tolist()
        _BATCHES.inc()
        _EVENTS.inc(count * len(alive))
        attrib = ATTRIB.enabled
        if attrib:
            ATTRIB.sim_good(attrib_netlist_profile(netlist))
            ATTRIB.sim_sweep(count * len(alive))
        still_alive: List[Fault] = []
        still_idx: List[int] = []
        dropped = 0
        for fault, i in zip(alive, alive_idx):
            if act_col[i]:
                # exactly where the scalar path walks the fanout cone --
                # keeps faultsim.cone.builds/reuses and the shared cone
                # cache state identical (inlined reuse fast path)
                if cone_keys[i] in cone_cache:
                    _CONE_REUSES.inc()
                else:
                    fsim._cone(fault.gate)
                if attrib:
                    ATTRIB.sim_cone(
                        attrib_cone_profile(
                            fsim, fault.gate, cone_cache[cone_keys[i]][0]
                        ),
                        f"{netlist.name}::{fault.gate}",
                    )
            word = det_col[i]
            if word:
                result.detected.append(fault)
                result.first_detection[fault] = batch_start + _lowest_bit(word)
                dropped += 1
            else:
                still_alive.append(fault)
                still_idx.append(i)
        _DROPPED.inc(dropped)
        alive = still_alive
        alive_idx = still_idx
        if not alive:
            break

    result.undetected = alive
    return result


# ----------------------------------------------------------------------
# sequential grading
# ----------------------------------------------------------------------
def _next_states(program: CompiledProgram, values):
    """Flop capture values ``(..., flops, W)`` from a value cube."""
    states = np.empty(values.shape[:-2] + (len(program.flop_rows), values.shape[-1]),
                      dtype=np.uint64)
    if len(program.dff_pos):
        states[..., program.dff_pos, :] = values[..., program.dff_d_rows, :]
    if len(program.sdff_pos):
        d = values[..., program.sdff_d_rows, :]
        si = values[..., program.sdff_si_rows, :]
        se = values[..., program.sdff_se_rows, :]
        states[..., program.sdff_pos, :] = (d & ~se) | (si & se)
    return states


class _ChunkForcing:
    """Per-level fault forcing for one chunk of a faults-innermost plane.

    Column ``w * F + f`` of the ``(rows, Wg * F)`` plane holds word ``w``
    of live fault ``f``.  Every fault is one forced op at its gate's
    level: a stem fault is a BUF reading the reserved constant row of
    its stuck value, and a pin fault re-evaluates its gate with the
    stuck pin reading that row.  Groups share a (level, gate kind), so
    one gather and one :func:`eval_group_ops` call correct all of them.
    """

    def __init__(self, plans: Sequence[_Plan]) -> None:
        def const_rows(stuck) -> "np.ndarray":
            return np.where(stuck != 0, ONE_ROW, ZERO_ROW).astype(np.intp)

        stems: Dict[int, List[Tuple[int, _Plan]]] = {}
        pins: Dict[Tuple[int, GateKind], List[Tuple[int, _Plan]]] = {}
        for i, plan in enumerate(plans):
            if plan.kind is _STEM:
                stems.setdefault(plan.level, []).append((i, plan))
            else:
                pins.setdefault((plan.level, plan.gate_kind), []).append((i, plan))
        #: (level, kind, fault index, fanin rows (n, A), output rows (n,))
        self.groups: List[Tuple[int, GateKind, "np.ndarray", "np.ndarray", "np.ndarray"]] = []
        for level, members in stems.items():
            stuck = np.array([plan.stuck for _, plan in members], dtype=np.uint64)
            self.groups.append((
                level,
                GateKind.BUF,
                np.array([i for i, _ in members], dtype=np.intp),
                const_rows(stuck)[:, None],
                np.array([plan.row for _, plan in members], dtype=np.intp),
            ))
        for (level, kind), members in pins.items():
            group = _PinGroup(kind, members)
            fanin_rows = group.fanin_rows
            fanin_rows[np.arange(len(members)), group.pin_slot] = const_rows(group.stuck)
            self.groups.append((level, kind, group.idx, fanin_rows, group.out_rows))

    def drop(self, keep) -> None:
        """Remove the faults where ``keep`` is False; renumber the rest."""
        renumber = np.cumsum(keep) - 1
        groups = []
        for level, kind, idx, fanin_rows, out_rows in self.groups:
            live = keep[idx]
            if live.any():
                groups.append(
                    (level, kind, renumber[idx[live]], fanin_rows[live], out_rows[live])
                )
        self.groups = groups

    def hook(self, plane, Wg: int):
        """The ``after_level`` callback forcing every live fault in ``plane``."""
        width = plane.shape[1]
        flat = plane.reshape(-1)
        words = np.arange(Wg, dtype=np.intp) * (width // Wg)
        at_level: Dict[int, List[Tuple[GateKind, "np.ndarray", "np.ndarray"]]] = {}
        for level, kind, idx, fanin_rows, out_rows in self.groups:
            cols = idx[:, None] + words
            at_level.setdefault(level, []).append((
                kind,
                fanin_rows[:, :, None] * width + cols[:, None, :],
                out_rows[:, None] * width + cols,
            ))

        def force(level: int, _values) -> None:
            for kind, src, dst in at_level.get(level, ()):
                flat[dst] = eval_group_ops(kind, flat[src])

        return force


def _plane_view(program: CompiledProgram, buffer, width: int):
    """A ``(rows, width)`` plane over the front of ``buffer``.

    Only the reserved and constant rows are filled: every other row is
    written each cycle (inputs, flop state) or by the program itself.
    """
    plane = buffer[: program.rows * width].reshape(program.rows, width)
    plane[ZERO_ROW] = 0
    plane[ONE_ROW] = ALL_ONES
    plane[program.const0_rows] = 0
    plane[program.const1_rows] = ALL_ONES
    return plane


def grade_sequence_group(
    netlist: GateNetlist,
    sequences: Sequence[Sequence[Pattern]],
    length: int,
    alive: List[Fault],
    result: FaultSimResult,
) -> List[Fault]:
    """Numpy-backend equivalent of :func:`_grade_sequence_group`.

    Grades one packed group (<= ``SEQUENCE_PACK_LIMIT`` sequences) and
    returns the survivors; detected faults and ``first_detection`` cycles
    land in ``result`` in the scalar path's order.
    """
    program = compiled_program(netlist)
    count = len(sequences)
    Wg = word_count(count)
    gmasks = tail_masks(count)[:, None]

    # per-cycle packed input words, exactly like the scalar packer
    # (missing inputs default to 0 -- no error here)
    input_rows = program.input_rows
    cycle_words = np.zeros((length, len(input_rows), Wg), dtype=np.uint64)
    for cycle in range(length):
        for n, name in enumerate(program.input_names):
            word = 0
            for position, sequence in enumerate(sequences):
                if sequence[cycle].get(name, 0):
                    word |= 1 << position
            cycle_words[cycle, n, :] = int_to_words(word, Wg)

    n_out = len(program.output_rows)

    # ---- good machine trace (primary outputs per cycle) ----
    good_po = np.zeros((length, n_out, Wg), dtype=np.uint64)
    values = program.new_values(Wg)
    state = np.zeros((len(program.flop_rows), Wg), dtype=np.uint64)
    for cycle in range(length):
        values[input_rows, :] = cycle_words[cycle]
        values[program.flop_rows, :] = state
        program.eval(values)
        good_po[cycle] = values[program.output_rows, :]
        state = _next_states(program, values)

    detected_cycle: Dict[Fault, int] = {}
    dense: List[_Plan] = []
    for fault in dict.fromkeys(alive):
        plan = _Plan(program, fault)
        if plan.kind is _FLOP_PIN:
            # flop input-pin faults never perturb the scalar sequential
            # simulation (flops are sources, never re-evaluated): inert
            continue
        dense.append(plan)

    # one buffer backs every chunk's plane, so dropping never copies it
    buffer = np.empty(program.rows * Wg * min(FAULT_CHUNK, len(dense)), dtype=np.uint64)
    for start in range(0, len(dense), FAULT_CHUNK):
        sub = dense[start : start + FAULT_CHUNK]
        forcing = _ChunkForcing(sub)
        live = np.arange(len(sub))  # chunk index of each column's fault
        state = np.zeros((len(program.flop_rows), Wg * len(sub)), dtype=np.uint64)
        plane = None
        for cycle in range(length):
            F = len(live)
            if plane is None:
                plane = _plane_view(program, buffer, Wg * F)
                force = forcing.hook(plane, Wg)
            by_word = plane.reshape(program.rows, Wg, F)
            by_word[input_rows] = cycle_words[cycle][:, :, None]
            plane[program.flop_rows] = state
            program.eval(plane, after_level=force)
            diff = (by_word[program.output_rows] ^ good_po[cycle][:, :, None]) & gmasks
            hits = diff.any(axis=(0, 1))
            for i in np.flatnonzero(hits).tolist():
                detected_cycle[sub[live[i]].fault] = cycle
            if cycle + 1 == length or hits.all():
                break
            state = _next_states(program, plane)
            if hits.any():
                # drop the detected faults' columns from the carried state
                # and the forcing; the next cycle uses a narrower plane
                keep = ~hits
                live = live[keep]
                state = state.reshape(-1, Wg, F)[:, :, keep].reshape(len(state), Wg * len(live))
                forcing.drop(keep)
                plane = None

    survivors: List[Fault] = []
    for fault in alive:
        cycle = detected_cycle.get(fault)
        if cycle is None:
            survivors.append(fault)
        else:
            result.detected.append(fault)
            result.first_detection[fault] = cycle
    return survivors

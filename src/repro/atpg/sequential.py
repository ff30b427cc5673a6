"""Bounded sequential ATPG via time-frame expansion.

The paper's Table 3 grades the *original* (no DFT) circuits with an
in-house sequential ATPG and finds very low coverage.  We reproduce that
measurement with two cooperating pieces:

1. random functional sequences graded by the sequential fault simulator
   (:func:`repro.faults.simulator.sequential_fault_grade`), and
2. a K-frame unrolling of the netlist on which the combinational PODEM
   runs with the fault injected into *every* frame copy and the frame-0
   state held at X (non-assignable sources).

The PODEM activation objective targets the last frame copy; tests that
require activating only earlier frames may be missed, so the result is a
slight under-approximation -- conservative in the direction the paper's
point needs (sequential coverage without DFT is poor).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atpg.podem import PodemStatus, podem
from repro.faults.collapse import collapse_faults
from repro.faults.coverage import CoverageReport
from repro.faults.model import Fault, full_fault_universe
from repro.faults.simulator import sequential_fault_grade
from repro.gates.cells import STATE_KINDS, GateKind
from repro.gates.netlist import GateNetlist


@dataclass
class Unrolled:
    """A K-frame combinational expansion of a sequential netlist."""

    netlist: GateNetlist
    frames: int
    #: frame-0 pseudo-inputs modelling the unknown initial state
    initial_state_inputs: Set[str] = field(default_factory=set)

    def frame_gate(self, frame: int, original: str) -> str:
        return f"f{frame}::{original}"

    def frame_fault(self, frame: int, fault: Fault) -> Fault:
        return Fault(self.frame_gate(frame, fault.gate), fault.pin, fault.stuck)


def unroll(netlist: GateNetlist, frames: int) -> Unrolled:
    """Expand ``netlist`` into ``frames`` combinational time frames.

    Frame-0 flip-flop outputs become fresh INPUT gates (returned in
    ``initial_state_inputs`` so ATPG can treat them as uncontrollable);
    frame ``k`` flip-flop outputs are buffers of the frame ``k-1`` D
    nets.  Primary outputs are replicated per frame, so a fault effect is
    observable in whichever frame it first reaches a PO.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    result = GateNetlist(f"{netlist.name}@x{frames}")
    initial_state: Set[str] = set()

    def gate_name(frame: int, original: str) -> str:
        return f"f{frame}::{original}"

    for frame in range(frames):
        for gate in netlist.gates():
            name = gate_name(frame, gate.name)
            if gate.kind in STATE_KINDS:
                if frame == 0:
                    result.add_gate(name, GateKind.INPUT)
                    initial_state.add(name)
                else:
                    # Q(k) = D-net(k-1); for SDFF the functional D pin is used
                    previous_d = gate_name(frame - 1, gate.fanins[0])
                    result.add_gate(name, GateKind.BUF, [previous_d])
            elif gate.kind is GateKind.INPUT:
                result.add_gate(name, GateKind.INPUT)
            else:
                result.add_gate(name, gate.kind, [gate_name(frame, s) for s in gate.fanins])
    result.validate()
    return Unrolled(netlist=result, frames=frames, initial_state_inputs=initial_state)


@dataclass
class SequentialAtpgOutcome:
    """Products of a sequential ATPG run."""

    report: CoverageReport
    sequences: List[List[Dict[str, int]]] = field(default_factory=list)
    random_detected: int = 0
    deterministic_detected: int = 0


class SequentialAtpg:
    """Random sequences + bounded time-frame-expansion PODEM."""

    def __init__(
        self,
        netlist: GateNetlist,
        seed: int = 0,
        random_sequences: int = 64,
        sequence_length: int = 16,
        frames: int = 3,
        backtrack_limit: int = 50,
        fault_sample: Optional[int] = None,
        deterministic_budget: int = 100,
    ) -> None:
        self.netlist = netlist
        self.seed = seed
        self.random_sequences = random_sequences
        self.sequence_length = sequence_length
        self.frames = frames
        self.backtrack_limit = backtrack_limit
        self.fault_sample = fault_sample
        self.deterministic_budget = deterministic_budget

    def run(self, faults: Optional[Sequence[Fault]] = None) -> SequentialAtpgOutcome:
        if faults is None:
            faults = collapse_faults(self.netlist, full_fault_universe(self.netlist))
        rng = random.Random(self.seed)
        input_names = [g.name for g in self.netlist.inputs]

        sequences = [
            [
                {name: rng.getrandbits(1) for name in input_names}
                for _ in range(self.sequence_length)
            ]
            for _ in range(self.random_sequences)
        ]
        graded = sequential_fault_grade(
            self.netlist, sequences, faults, sample=self.fault_sample, seed=self.seed
        )
        alive = graded.undetected
        random_detected = len(graded.detected)

        deterministic_detected = 0
        expansion = unroll(self.netlist, self.frames)
        assignable = {
            g.name
            for g in expansion.netlist.inputs
            if g.name not in expansion.initial_state_inputs
        }
        budget = min(self.deterministic_budget, len(alive))
        still_alive: List[Fault] = list(alive[budget:])
        for fault in alive[:budget]:
            frame_faults = [expansion.frame_fault(k, fault) for k in range(expansion.frames)]
            target = frame_faults[-1]
            extra = frame_faults[:-1]
            if target.pin is not None and target.pin >= len(
                expansion.netlist.gate(target.gate).fanins
            ):
                # frames run flip-flops in functional mode: an SDFF scan
                # pin has no copy to target, so the fault stays undetected
                still_alive.append(fault)
                continue
            outcome = podem(
                expansion.netlist,
                target,
                assignable=assignable,
                backtrack_limit=self.backtrack_limit,
                extra_sites=extra,
            )
            if outcome.status is PodemStatus.DETECTED:
                deterministic_detected += 1
            else:
                still_alive.append(fault)

        report = CoverageReport(
            total=graded.total,
            detected=random_detected + deterministic_detected,
            undetected_faults=still_alive,
        )
        return SequentialAtpgOutcome(
            report=report,
            sequences=sequences,
            random_detected=random_detected,
            deterministic_detected=deterministic_detected,
        )

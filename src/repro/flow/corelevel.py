"""Core-level preparation: the core provider's one-time job.

Runs HSCAN insertion, transparency version synthesis, elaboration, and
combinational ATPG on one core, collecting everything the chip-level
flow and the benchmarks need: test set, coverage, per-version latency
tables, and area numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.atpg.combinational import AtpgOutcome, CombinationalAtpg
from repro.dft.hscan import HscanResult, insert_hscan
from repro.elaborate import Elaborated, elaborate
from repro.rtl.circuit import RTLCircuit
from repro.transparency.versions import CoreVersion, generate_versions


@dataclass
class CorePreparation:
    """Everything produced by preparing one core for SOC integration."""

    circuit: RTLCircuit
    elaborated: Elaborated
    hscan: HscanResult
    versions: List[CoreVersion]
    atpg: AtpgOutcome

    @property
    def name(self) -> str:
        return self.circuit.name

    @property
    def functional_area(self) -> int:
        return self.elaborated.netlist.area()

    @property
    def vector_count(self) -> int:
        return len(self.atpg.patterns)

    def version_latency_table(self) -> List[Dict[str, object]]:
        """Rows shaped like the paper's Figures 6/8: latencies + cells."""
        rows: List[Dict[str, object]] = []
        for version in self.versions:
            row: Dict[str, object] = {"version": version.name, "cells": version.extra_cells}
            for (port, lo, width), path in sorted(version.justify_paths.items()):
                row[f"justify {port}[{lo}+{width}]"] = path.latency
            for port, path in sorted(version.propagate_paths.items()):
                row[f"propagate {port}"] = path.latency
            rows.append(row)
        return rows


def prepare_core(circuit: RTLCircuit, seed: int = 0, backtrack_limit: int = 150) -> CorePreparation:
    """Run the full core-level flow on ``circuit``."""
    hscan = insert_hscan(circuit)
    versions = generate_versions(circuit, hscan)
    elaborated = elaborate(circuit)
    atpg = CombinationalAtpg(elaborated.netlist, seed=seed, backtrack_limit=backtrack_limit).run()
    return CorePreparation(
        circuit=circuit,
        elaborated=elaborated,
        hscan=hscan,
        versions=versions,
        atpg=atpg,
    )


def prepare_cores(
    circuits: Sequence[RTLCircuit],
    seed: int = 0,
    backtrack_limit: int = 150,
) -> List[CorePreparation]:
    """Prepare many cores, in input order (see :func:`prepare_core`)."""
    return [
        prepare_core(circuit, seed=seed, backtrack_limit=backtrack_limit)
        for circuit in circuits
    ]

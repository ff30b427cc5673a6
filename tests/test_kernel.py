"""Differential tests: compiled numpy kernels vs the scalar oracle.

The scalar simulators are the bit-identity oracle (DESIGN.md,
"Vectorized kernels"): the numpy backend must reproduce not just
coverage numbers but the exact ``detected`` ordering, ``undetected``
survivors, ``first_detection`` pattern indices, and every
``faultsim.*`` counter -- fault dropping makes grading order-sensitive,
so anything less than bit-identity silently changes results downstream.
"""

import random

import pytest

from repro.designs import build_system1, build_system2, build_system3, build_system4
from repro.errors import SimulationError
from repro.faults import Fault, FaultSimulator, collapse_faults, full_fault_universe
from repro.faults import kernel as fk
from repro.faults.simulator import (
    SEQUENCE_PACK_LIMIT,
    clear_cone_caches,
    sequential_fault_grade,
)
from repro.flow.system_netlist import flatten_soc
from repro.gates import CombinationalSimulator, GateKind, GateNetlist
from repro.gates import kernel as gk
from repro.gates.kernel import (
    clear_kernel_caches,
    compiled_program,
    int_to_words,
    resolve_backend,
    tail_masks,
    word_count,
    words_to_int,
)
from repro.gates.simulator import FaultSite
from repro.obs import METRICS

from tests.test_podem_property import random_netlist

_KINDS2 = [
    GateKind.AND,
    GateKind.OR,
    GateKind.NAND,
    GateKind.NOR,
    GateKind.XOR,
    GateKind.XNOR,
]


def random_seq_netlist(seed: int, loops: bool = False) -> GateNetlist:
    """Random netlist with DFF state feedback for sequential grading.

    With ``loops`` every flop captures a gate that reads the flop itself,
    so a fault's corrupted state keeps feeding back into its own gate.
    """
    rng = random.Random(seed)
    n = GateNetlist(f"s{seed}")
    nets = []
    for i in range(rng.randint(2, 4)):
        nets.append(n.add_gate(f"i{i}", GateKind.INPUT))
    flops = []
    for i in range(rng.randint(1, 4)):
        flops.append(f"ff{i}")
        nets.append(flops[-1])
    heads = {}
    if loops:
        for name in flops:
            heads[name] = n.add_gate(
                f"h_{name}", rng.choice(_KINDS2), [name, rng.choice(nets)]
            )
        nets.extend(heads.values())
    for i in range(rng.randint(4, 14)):
        if rng.random() < 0.2:
            kind = GateKind.NOT
            fanins = [rng.choice(nets)]
        else:
            kind = rng.choice(_KINDS2)
            fanins = [rng.choice(nets), rng.choice(nets)]
        nets.append(n.add_gate(f"g{i}", kind, fanins))
    comb = [x for x in nets if not x.startswith("ff")]
    for name in flops:
        n.add_gate(name, GateKind.DFF, [heads.get(name) or rng.choice(comb)])
    for i, net in enumerate(nets[-2:]):
        n.add_gate(f"O{i}", GateKind.OUTPUT, [net])
    return n.validate()


def _looped_seq_netlist(seed: int) -> GateNetlist:
    return random_seq_netlist(seed, loops=True)


def grade_both_backends(run):
    """Run ``run(backend)`` cold under both backends; return results + counters."""
    out = {}
    for backend in ("scalar", "numpy"):
        clear_cone_caches()
        clear_kernel_caches()
        before = dict(METRICS.counters("faultsim."))
        result = run(backend)
        after = METRICS.counters("faultsim.")
        delta = {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}
        out[backend] = (result, delta)
    return out


def assert_identical(out):
    (rs, ds), (rn, dn) = out["scalar"], out["numpy"]
    assert rs.detected == rn.detected
    assert rs.undetected == rn.undetected
    assert rs.first_detection == rn.first_detection
    assert ds == dn


# ----------------------------------------------------------------------
# word packing helpers
# ----------------------------------------------------------------------
class TestWordPacking:
    def test_word_count(self):
        assert word_count(1) == 1
        assert word_count(64) == 1
        assert word_count(65) == 2
        assert word_count(700) == 11

    def test_word_count_rejects_nonpositive(self):
        with pytest.raises(SimulationError):
            word_count(0)

    def test_tail_masks(self):
        masks = tail_masks(130)
        assert [int(m) for m in masks] == [gk.ALL_ONES, gk.ALL_ONES, 0b11]
        assert int(tail_masks(64)[0]) == gk.ALL_ONES

    def test_int_words_roundtrip(self):
        rng = random.Random(7)
        for bits in (1, 63, 64, 65, 500):
            value = rng.getrandbits(bits)
            limbs = int_to_words(value, word_count(max(bits, 1)))
            assert words_to_int(limbs) == value


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_default(self):
        assert resolve_backend() == "numpy"

    def test_override(self, monkeypatch):
        # DEFAULT_BACKEND is read per call: tests flip it to run the oracle
        monkeypatch.setattr(gk, "DEFAULT_BACKEND", "scalar")
        assert resolve_backend() == "scalar"
        assert resolve_backend("numpy") == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown simulation backend"):
            resolve_backend("cuda")


# ----------------------------------------------------------------------
# compiled-program cache
# ----------------------------------------------------------------------
class TestProgramCache:
    def test_compile_once_then_reuse(self):
        clear_kernel_caches()
        netlist = random_netlist(3)
        before = dict(METRICS.counters("kernel."))
        first = compiled_program(netlist)
        second = compiled_program(netlist)
        after = METRICS.counters("kernel.")
        assert first is second
        assert after["kernel.compiles"] - before.get("kernel.compiles", 0) == 1
        assert after["kernel.cache.reuses"] - before.get("kernel.cache.reuses", 0) == 1

    def test_clear_forces_recompile(self):
        netlist = random_netlist(4)
        first = compiled_program(netlist)
        clear_kernel_caches()
        assert compiled_program(netlist) is not first

    def test_words_evaluated_counter(self):
        netlist = random_netlist(5)
        sim = CombinationalSimulator(netlist, backend="numpy")
        sources = {g.name: 0 for g in netlist.inputs}
        before = METRICS.counters().get("kernel.words_evaluated", 0)
        sim.run(sources, 64)
        sim.run(sources, 130)
        after = METRICS.counters()["kernel.words_evaluated"]
        # one 1-word pass plus one 3-word pass over every op output
        assert after - before == compiled_program(netlist).op_outputs * (1 + 3)


# ----------------------------------------------------------------------
# good-machine value parity
# ----------------------------------------------------------------------
class TestCombinationalParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_values_identical(self, seed):
        netlist = random_netlist(seed)
        rng = random.Random(100 + seed)
        pattern_count = rng.choice([1, 3, 64, 65, 130])
        sources = {
            g.name: rng.getrandbits(pattern_count) for g in netlist.inputs
        }
        scalar = CombinationalSimulator(netlist, backend="scalar").run(sources, pattern_count)
        vector = CombinationalSimulator(netlist, backend="numpy").run(sources, pattern_count)
        assert scalar == vector

    @pytest.mark.parametrize("seed", range(6))
    def test_fault_injection_identical(self, seed):
        netlist = random_netlist(seed)
        rng = random.Random(200 + seed)
        sources = {g.name: rng.getrandbits(96) for g in netlist.inputs}
        for fault in full_fault_universe(netlist):
            site = fault.site()
            scalar = CombinationalSimulator(netlist, backend="scalar").run(sources, 96, site)
            vector = CombinationalSimulator(netlist, backend="numpy").run(sources, 96, site)
            assert scalar == vector, f"fault {fault}"

    def test_missing_source_message_matches_scalar(self):
        netlist = random_netlist(0)
        name = next(g.name for g in netlist.inputs)
        sources = {g.name: 1 for g in netlist.inputs}
        del sources[name]
        for backend in ("scalar", "numpy"):
            with pytest.raises(SimulationError, match=repr(name)):
                CombinationalSimulator(netlist, backend=backend).run(sources, 8)


# ----------------------------------------------------------------------
# fault grading parity (the oracle contract)
# ----------------------------------------------------------------------
class TestFaultSimParity:
    @pytest.mark.parametrize("seed", range(20))
    def test_combinational_identical(self, seed):
        netlist = random_netlist(seed)
        faults = full_fault_universe(netlist)
        rng = random.Random(1000 + seed)
        inputs = [g.name for g in netlist.inputs]
        npat = rng.choice([1, 3, 64, 65, 130, 700])
        patterns = [{name: rng.randint(0, 1) for name in inputs} for _ in range(npat)]
        out = grade_both_backends(
            lambda backend: FaultSimulator(netlist, backend=backend).run(patterns, faults)
        )
        assert_identical(out)

    def test_fault_dropping_order(self):
        """Dropped faults keep the scalar batch-by-batch detected order.

        With >64 patterns grading runs in two 64-pattern batches; faults
        detected in batch 0 are dropped (never re-graded) and must
        appear in ``detected`` before any batch-1 detection, with
        ``first_detection`` naming the lowest detecting pattern index.
        """
        netlist = random_netlist(11)
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        rng = random.Random(42)
        inputs = [g.name for g in netlist.inputs]
        patterns = [{name: rng.randint(0, 1) for name in inputs} for _ in range(128)]
        out = grade_both_backends(
            lambda backend: FaultSimulator(netlist, backend=backend).run(patterns, faults)
        )
        assert_identical(out)
        result, delta = out["numpy"]
        indices = [result.first_detection[f] for f in result.detected]
        batches = [i // 64 for i in indices]
        assert batches == sorted(batches), "detected order must follow batch order"
        assert delta.get("faultsim.faults.dropped", 0) == len(result.detected)

    @pytest.mark.parametrize(
        "seed, counts, cycles, chunk, build",
        [
            pytest.param(s, (1, 5, 64, 70), (1, 6), None, random_seq_netlist, id=str(s))
            for s in range(12)
        ]
        # a tiny fault chunk: faults drop mid-chunk, at different cycles
        + [
            pytest.param(s, (5, 64), (4, 8), 5, random_seq_netlist, id=f"chunk5-{s}")
            for s in range(4)
        ]
        # 130 sequences: one group, three words per fault
        + [
            pytest.param(s, (130,), (3, 6), None, random_seq_netlist, id=f"words3-{s}")
            for s in range(3)
        ]
        # long sequences: corrupted flop state feeds back into pin faults
        + [
            pytest.param(s, (1, 5), (8, 12), None, _looped_seq_netlist, id=f"long-{s}")
            for s in range(12)
        ]
        # no flops at all (and MUX2/BUF pin faults), dropping mid-chunk
        + [
            pytest.param(s, (5, 64), (2, 4), 5, random_netlist, id=f"noflops-{s}")
            for s in range(3)
        ],
    )
    def test_sequential_identical(self, monkeypatch, seed, counts, cycles, chunk, build):
        if chunk is not None:
            monkeypatch.setattr(fk, "FAULT_CHUNK", chunk)
        netlist = build(seed)
        faults = full_fault_universe(netlist)
        rng = random.Random(2000 + seed)
        inputs = [g.name for g in netlist.inputs]
        nseq, ncyc = rng.choice(counts), rng.randint(*cycles)
        sequences = [
            [{name: rng.randint(0, 1) for name in inputs} for _ in range(ncyc)]
            for _ in range(nseq)
        ]
        out = grade_both_backends(
            lambda backend: sequential_fault_grade(
                netlist, sequences, faults, backend=backend
            )
        )
        assert_identical(out)

    def test_sequential_feedback_into_pin_fault(self):
        """Corrupted flop state feeds back into the pin-faulted gate.

        ``q' = q XOR en`` with ``en`` stuck-at-0 on the XOR pin: the
        faulty flop never leaves 0, so the fault shows once ``obs``
        samples ``q`` at cycle 2.  A pin correction that read the good
        plane would copy the good ``q`` into the faulty flop (one cycle
        late) and miss the fault at cycle 2.
        """
        netlist = GateNetlist("toggle")
        netlist.add_gate("en", GateKind.INPUT)
        netlist.add_gate("obs", GateKind.INPUT)
        netlist.add_gate("t", GateKind.XOR, ["q", "en"])
        netlist.add_gate("q", GateKind.DFF, ["t"])
        netlist.add_gate("o", GateKind.AND, ["q", "obs"])
        netlist.add_gate("O", GateKind.OUTPUT, ["o"])
        netlist.add_gate("E", GateKind.OUTPUT, ["en"])  # en fans out: pin faults exist
        netlist.validate()
        sequences = [[
            {"en": en, "obs": obs}
            for en, obs in ((1, 0), (0, 0), (0, 1), (0, 0))
        ]]
        faults = full_fault_universe(netlist)
        out = grade_both_backends(
            lambda backend: sequential_fault_grade(
                netlist, sequences, faults, backend=backend
            )
        )
        assert_identical(out)
        result, _ = out["numpy"]
        en_stuck = Fault("t", 1, 0)
        assert en_stuck in faults
        assert result.first_detection[en_stuck] == 2

    def test_sequential_chunking_past_pack_limit(self):
        """More than SEQUENCE_PACK_LIMIT sequences grades in chunks."""
        netlist = random_seq_netlist(1)
        faults = full_fault_universe(netlist)
        rng = random.Random(9)
        inputs = [g.name for g in netlist.inputs]
        count = SEQUENCE_PACK_LIMIT + 40
        sequences = [
            [{name: rng.randint(0, 1) for name in inputs} for _ in range(2)]
            for _ in range(count)
        ]
        out = grade_both_backends(
            lambda backend: sequential_fault_grade(
                netlist, sequences, faults, backend=backend
            )
        )
        assert_identical(out)


# ----------------------------------------------------------------------
# the four systems
# ----------------------------------------------------------------------
class TestSystemsParity:
    @pytest.mark.parametrize(
        "build", [build_system1, build_system2, build_system3, build_system4]
    )
    def test_flattened_chip_grading_identical(self, build):
        soc = build(atpg_seed=0)
        netlist = flatten_soc(soc, with_hscan=False, scan_access="none")
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        rng = random.Random(0)
        inputs = [g.name for g in netlist.inputs]
        sequences = [
            [{name: rng.getrandbits(1) for name in inputs} for _ in range(5)]
            for _ in range(4)
        ]
        out = grade_both_backends(
            lambda backend: sequential_fault_grade(
                netlist, sequences, faults, sample=60, seed=1, backend=backend
            )
        )
        assert_identical(out)

    def test_core_scan_grading_identical(self):
        from repro.elaborate import elaborate

        soc = build_system1(atpg_seed=0)
        core = soc.testable_cores()[0]
        netlist = elaborate(core.circuit).netlist
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        rng = random.Random(3)
        sources = [
            g.name
            for g in netlist.gates()
            if g.kind in (GateKind.INPUT, GateKind.DFF, GateKind.SDFF)
        ]
        patterns = [
            {name: rng.getrandbits(1) for name in sources} for _ in range(192)
        ]
        out = grade_both_backends(
            lambda backend: FaultSimulator(netlist, backend=backend).run(patterns, faults)
        )
        assert_identical(out)

"""Differential tests pinning the parallel-pattern fault simulator bit-exactly.

``FaultSimulator`` is a parallel-pattern single-fault-propagation (PPSFP)
simulator: every fault's cone is walked once at the full pattern width.  Its
``run`` must agree fault-for-fault, index-for-index with

* ``reference_fault_sim`` — the per-gate/Python-int oracle in
  ``tests/oracles.py``, with and without the oracle's fault dropping, and
* itself run one fault at a time, so a fault's outcome never depends on
  which other faults share the call.

The suite sweeps seeded random circuits with deep reconvergent cones, the
bundled c432/c880 benches, and pattern counts on both sides of the 64-bit
word boundary (1, 63, 64, 65, 130, 200) — where tail masking breaks first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg import FaultSimulator, full_fault_list
from repro.bench import c432_like, c880_like
from repro.netlist import Circuit, GateType
from tests.oracles import reference_fault_sim

_GATE_TYPES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUFF,
]


def random_circuit(seed: int, n_inputs: int = 8, n_gates: int = 60) -> Circuit:
    """Seeded random combinational DAG with reconvergent fan-out.

    Each gate draws its fan-in from *all* earlier nets, so deep cones and
    shared subcones appear naturally.  Roughly a third of the gates are made
    primary outputs, plus every sink, so detection visibility varies across
    faults.
    """
    rng = np.random.default_rng(seed)
    circuit = Circuit(f"rand{seed}")
    nets = [circuit.add_input(f"i{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        gate_type = _GATE_TYPES[rng.integers(len(_GATE_TYPES))]
        fan_in = 1 if gate_type in (GateType.NOT, GateType.BUFF) else int(
            rng.integers(2, min(4, len(nets)) + 1)
        )
        ins = rng.choice(len(nets), size=fan_in, replace=False)
        nets.append(circuit.add_gate(f"g{g}", gate_type, [nets[i] for i in ins]))
    driven = {inp for net in circuit.nets for inp in circuit.gate(net).inputs}
    sinks = [n for n in nets[n_inputs:] if n not in driven]
    chosen = {n for n in nets[n_inputs:] if rng.random() < 0.3}
    for net in sorted(chosen | set(sinks)):
        circuit.set_output(net)
    return circuit


def _patterns(circuit: Circuit, n_patterns: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n_patterns, len(circuit.inputs))) < 0.5).astype(np.uint8)


def _sample_faults(circuit: Circuit, n: int, seed: int):
    faults = full_fault_list(circuit)
    if len(faults) <= n:
        return faults
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(faults), n, replace=False)
    return [faults[i] for i in sorted(chosen)]


def _assert_same_outcome(circuit, patterns, faults, drop_detected=True):
    """``run`` agrees with the oracle and with one-fault-at-a-time runs on
    detections AND first-pattern indices, and keeps caller order."""
    sim = FaultSimulator(circuit)
    want = reference_fault_sim(circuit, patterns, faults, drop_detected=drop_detected)
    got = sim.run(patterns, faults)
    assert got.detected == want.detected
    assert got.undetected == want.undetected
    for fault in faults:
        single = sim.run(patterns, [fault])
        assert single.detected.get(fault) == got.detected.get(fault), fault


class TestRandomCircuitDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_ppsfp_matches_reference_and_single(self, seed):
        circuit = random_circuit(seed)
        patterns = _patterns(circuit, 130, seed + 100)
        faults = _sample_faults(circuit, 100, seed + 200)
        _assert_same_outcome(circuit, patterns, faults)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_no_dropping_mode(self, seed):
        circuit = random_circuit(seed, n_inputs=6, n_gates=40)
        patterns = _patterns(circuit, 200, seed)
        faults = _sample_faults(circuit, 80, seed)
        _assert_same_outcome(circuit, patterns, faults, drop_detected=False)

    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 130, 200])
    def test_pattern_tail_boundaries(self, n_patterns):
        """Pattern counts straddling the 64-bit word boundary (tail masks)."""
        circuit = random_circuit(8)
        patterns = _patterns(circuit, n_patterns, 8)
        faults = _sample_faults(circuit, 48, 8)
        _assert_same_outcome(circuit, patterns, faults)


class TestIscasDifferential:
    def test_c880_bit_exact(self):
        circuit = c880_like()
        patterns = _patterns(circuit, 256, 42)
        faults = _sample_faults(circuit, 128, 42)
        _assert_same_outcome(circuit, patterns, faults)

    def test_c432_undetectable_faults_survive(self):
        """Faults the patterns never excite stay undetected, in caller order."""
        circuit = c432_like()
        patterns = _patterns(circuit, 100, 3)
        faults = _sample_faults(circuit, 120, 3)
        _assert_same_outcome(circuit, patterns, faults, drop_detected=False)

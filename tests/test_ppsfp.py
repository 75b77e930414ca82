"""Differential tests pinning the stem-region fault simulator bit-exactly.

``FaultSimulator.detection_masks`` walks one fanout cone per
fanout-free-region root and reaches it from each fault along the fault's
single path, ANDing in each gate's sensitization from good values.  Its
``run`` must agree fault-for-fault, index-for-index with

* ``reference_fault_sim`` — the per-gate/Python-int oracle in
  ``tests/oracles.py``, with and without the oracle's fault dropping, and
* itself run one fault at a time, so a fault's outcome never depends on
  which other faults share the call;

and its full masks must equal ``reference_detection_masks``, the walk of
every fault's own cone, bit for bit.

The suite sweeps seeded random circuits with deep reconvergent cones,
Hypothesis circuits built to put region boundaries in every awkward place
(MUX pins, a net read twice by one gate, primary outputs with one reader or
inside a fanout-free chain, dangling nets), the bundled c432/c499/c880/c3540
benches at their defender pattern sets, and pattern counts on both sides of
the 64-bit word boundary (1, 63, 64, 65, 130, 200) — where tail masking
breaks first.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg import (
    FaultSimulator,
    StuckAtFault,
    collapse_faults,
    full_fault_list,
    generate_test_set,
)
from repro.atpg import generate as generate_module
from repro.bench import c432_like, c499_like, c880_like, c3540_like
from repro.core.thresholds import DefenderModel
from repro.netlist import Circuit, GateType
from tests.oracles import reference_detection_masks, reference_fault_sim

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


# ----------------------------------------------------------------------
# Full masks against the per-fault cone walk.

_WIDTHS = [1, 63, 64, 65, 130]


def _assert_same_masks(circuit, patterns, faults):
    want = reference_detection_masks(circuit, patterns, faults)
    assert FaultSimulator(circuit).detection_masks(patterns, faults) == want


@st.composite
def region_circuits(draw):
    """Small combinational circuits dense in region-boundary cases.

    Each gate reads nets counted back from the newest one, so the smallest
    draws are fanout-free chains; inputs may repeat (``AND(a, a)``); MUX
    gates are frequent; any gate may be a primary output whether or not it
    has readers; sinks left unmarked stay dangling.
    """
    n_inputs = draw(st.integers(1, 5))
    circuit = Circuit("regions")
    nets = [circuit.add_input(f"i{k}") for k in range(n_inputs)]
    types = list(_GATE_TYPES) + [GateType.MUX] * 3
    for g in range(draw(st.integers(1, 24))):
        gate_type = draw(st.sampled_from(types))
        if gate_type in (GateType.NOT, GateType.BUFF):
            arity = 1
        elif gate_type is GateType.MUX:
            arity = 3
        else:
            arity = draw(st.integers(2, 3))
        back = st.integers(1, len(nets))
        ins = [nets[-draw(back)] for _ in range(arity)]
        nets.append(circuit.add_gate(f"g{g}", gate_type, ins))
        if draw(st.booleans()):
            circuit.set_output(nets[-1])
    circuit.set_output(nets[-1])
    return circuit


def boundary_circuit() -> Circuit:
    """One circuit holding each region-boundary case by construction."""
    c = Circuit("boundaries")
    for k in range(10):
        c.add_input(f"i{k}")
    # MUX whose three pins are each fed by a net with that one reader.
    c.add_gate("d0", GateType.NOT, ["i0"])
    c.add_gate("d1", GateType.BUFF, ["i1"])
    c.add_gate("s", GateType.NOT, ["i2"])
    c.add_gate("m", GateType.MUX, ["d0", "d1", "s"])
    # Nets read twice by one gate.
    c.add_gate("a", GateType.NOT, ["i3"])
    c.add_gate("aa", GateType.AND, ["a", "a"])
    c.add_gate("x", GateType.BUFF, ["i4"])
    c.add_gate("xx", GateType.XOR, ["x", "x", "m"])
    c.add_gate("o", GateType.NOT, ["i5"])
    c.add_gate("oo", GateType.OR, ["o", "o", "aa"])
    # A primary output with exactly one reader.
    c.add_gate("p", GateType.NAND, ["i6", "i7"])
    c.add_gate("q", GateType.OR, ["p", "xx", "oo"])
    # A primary output inside an otherwise fanout-free chain.
    c.add_gate("c1", GateType.NOT, ["i8"])
    c.add_gate("c2", GateType.BUFF, ["c1"])
    c.add_gate("c3", GateType.AND, ["c2", "i9"])
    c.add_gate("c4", GateType.NOR, ["c3", "q"])
    # Dangling non-PO nets.
    c.add_gate("dz", GateType.AND, ["i0", "i9"])
    c.add_gate("dz2", GateType.NOT, ["dz"])
    for po in ("p", "c2", "c4"):
        c.set_output(po)
    return c


class TestDetectionMasksDifferential:
    @pytest.mark.parametrize("n_patterns", _WIDTHS)
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(circuit=region_circuits(), seed=st.integers(0, 2**16))
    def test_masks_match_per_fault_walk(self, n_patterns, circuit, seed):
        patterns = _patterns(circuit, n_patterns, seed)
        _assert_same_masks(circuit, patterns, full_fault_list(circuit))

    @pytest.mark.parametrize("n_patterns", _WIDTHS)
    def test_boundary_circuit(self, n_patterns):
        circuit = boundary_circuit()
        patterns = _patterns(circuit, n_patterns, n_patterns)
        _assert_same_masks(circuit, patterns, full_fault_list(circuit))

    def test_boundary_circuit_exhaustive(self):
        """All 1024 input vectors: every boundary-case fault that can be
        detected is, and ``XOR(x, x)`` hides ``x`` and the dangling nets."""
        circuit = boundary_circuit()
        patterns = (np.arange(1 << 10)[:, None] >> np.arange(10) & 1).astype(np.uint8)
        faults = full_fault_list(circuit)
        want = dict(zip(faults, reference_detection_masks(circuit, patterns, faults)))
        for net in ("d0", "d1", "s", "a", "o", "p", "c1", "c2", "c3"):
            assert want[StuckAtFault(net, 0)] and want[StuckAtFault(net, 1)], net
        for net in ("x", "dz", "dz2"):
            assert not want[StuckAtFault(net, 0)] and not want[StuckAtFault(net, 1)], net
        _assert_same_masks(circuit, patterns, faults)


def defender_patterns(circuit, monkeypatch) -> np.ndarray:
    """The pre-compaction matrix ``generate_test_set`` builds under the
    default defender profile: the widest call its ATPG makes."""
    seen = []
    real = generate_module._compact

    def capture(masks, patterns):
        seen.append(patterns)
        return real(masks, patterns)

    monkeypatch.setattr(generate_module, "_compact", capture)
    generate_test_set(circuit, DefenderModel().atpg)
    monkeypatch.undo()
    (patterns,) = seen
    return patterns


class TestIscasMasks:
    @pytest.mark.parametrize(
        "build", [c432_like, c499_like, c880_like, c3540_like], ids=lambda b: b.__name__
    )
    def test_defender_pattern_set_bit_identical(self, build, monkeypatch):
        circuit = build()
        patterns = defender_patterns(circuit, monkeypatch)
        _assert_same_masks(circuit, patterns, collapse_faults(circuit))

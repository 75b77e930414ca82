"""Unit tests for fault simulation, validated against a brute-force oracle."""

import numpy as np
import pytest

from repro.atpg import (
    FaultSimulator,
    StuckAtFault,
    collapse_faults,
    fault_coverage,
    full_fault_list,
)
from repro.netlist import Circuit, GateType, tie_net_to_constant
from repro.sim import BitSimulator, exhaustive_patterns
from tests.oracles import reference_fault_sim


def brute_force_detects(circuit, pattern, fault):
    """Oracle: simulate the faulty circuit built by tying the net."""
    faulty = circuit.copy("faulty")
    if faulty.gate(fault.net).is_input:
        # Model a stuck input by inserting a tie and rewiring readers.
        faulty.add_gate("__stuck", GateType.TIE1 if fault.value else GateType.TIE0, ())
        for reader in list(faulty.fanout(fault.net)):
            faulty.rewire_input(reader, fault.net, "__stuck")
        if fault.net in faulty.outputs:
            faulty.unset_output(fault.net)
            faulty.set_output("__stuck")
    else:
        tie_net_to_constant(faulty, fault.net, fault.value)
    good = BitSimulator(circuit).run(np.atleast_2d(pattern))
    col = {name: i for i, name in enumerate(faulty.outputs)}
    bad_raw = BitSimulator(faulty).run(np.atleast_2d(pattern))
    order = [col[o] if o in col else col["__stuck"] for o in circuit.outputs]
    bad = bad_raw[:, order]
    return bool((good != bad).any())


class TestAgainstBruteForce:
    def test_c17_exhaustive_agreement(self, c17_circuit):
        faults = full_fault_list(c17_circuit)
        pats = exhaustive_patterns(5)
        sim = FaultSimulator(c17_circuit)
        outcome = sim.run(pats, faults)
        for fault in faults:
            expected = any(
                brute_force_detects(c17_circuit, pats[k], fault)
                for k in range(pats.shape[0])
            )
            assert (fault in outcome.detected) == expected, fault

    def test_first_detecting_pattern_index(self, c17_circuit):
        faults = [StuckAtFault("N22", 1)]
        pats = exhaustive_patterns(5)
        sim = FaultSimulator(c17_circuit)
        outcome = sim.run(pats, faults)
        idx = outcome.detected[faults[0]]
        assert brute_force_detects(c17_circuit, pats[idx], faults[0])
        for k in range(idx):
            assert not brute_force_detects(c17_circuit, pats[k], faults[0])


class TestFaultDropping:
    def test_dropping_stops_resimulation(self, c17_circuit):
        faults = full_fault_list(c17_circuit)
        pats = exhaustive_patterns(5)
        sim = FaultSimulator(c17_circuit)
        outcome = sim.run(pats, faults)
        # The oracle with and without dropping: same faults, same first index.
        for drop in (True, False):
            want = reference_fault_sim(c17_circuit, pats, faults, drop_detected=drop)
            assert outcome.detected == want.detected

    def test_coverage_metric(self, c17_circuit):
        pats = exhaustive_patterns(5)
        cov = fault_coverage(c17_circuit, pats, full_fault_list(c17_circuit))
        assert cov == 1.0  # c17 is fully testable

    def test_zero_patterns(self, c17_circuit):
        sim = FaultSimulator(c17_circuit)
        outcome = sim.run(
            np.zeros((0, 5), dtype=np.uint8), full_fault_list(c17_circuit)
        )
        assert not outcome.detected
        assert outcome.coverage == 0.0


class TestConeRestriction:
    def test_fault_outside_output_cone_never_detected(self):
        c = Circuit("deadend")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("live", GateType.NOT, ("a",))
        c.add_gate("dead", GateType.AND, ("a", "b"))
        c.set_output("live")
        sim = FaultSimulator(c)
        outcome = sim.run(exhaustive_patterns(2), [StuckAtFault("dead", 0)])
        assert not outcome.detected

    def test_multiword_blocks(self, c432_circuit, rng):
        """Detection results identical whether patterns arrive in one call
        or split across block boundaries."""
        faults = full_fault_list(c432_circuit)[:60]
        pats = (rng.random((130, 32)) < 0.5).astype(np.uint8)
        sim = FaultSimulator(c432_circuit)
        whole = set(sim.run(pats, faults).detected)
        first = set(sim.run(pats[:64], faults).detected)
        second = set(sim.run(pats[64:], faults).detected)
        assert whole == first | second


class TestDetectionMasks:
    """``detection_masks`` pinned against the block-wise reference oracle."""

    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 200])
    def test_lowest_bit_is_first_detect(self, c432_circuit, n_patterns):
        rng = np.random.default_rng(n_patterns)
        pats = (rng.random((n_patterns, len(c432_circuit.inputs))) < 0.5).astype(np.uint8)
        faults = collapse_faults(c432_circuit)
        masks = FaultSimulator(c432_circuit).detection_masks(pats, faults)
        assert len(masks) == len(faults)
        # Every suffix of the pattern set: the shifted mask's lowest bit is
        # the first detection within that suffix, so all bits are pinned.
        for offset in sorted({0, n_patterns // 2, n_patterns - 1}):
            ref = reference_fault_sim(c432_circuit, pats[offset:], faults)
            for fault, mask in zip(faults, masks):
                mask >>= offset
                if fault in ref.detected:
                    assert (mask & -mask).bit_length() - 1 == ref.detected[fault], fault
                else:
                    assert mask == 0, fault
            assert all(m >> n_patterns == 0 for m in masks)

    def test_po_site_and_unexcited_faults(self):
        c = Circuit("edges")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("one", GateType.TIE1, ())
        c.add_gate("m", GateType.AND, ("a", "b"))
        c.add_gate("out", GateType.AND, ("m", "one"))
        c.set_output("out")
        c.set_output("a")  # a PI that is also a PO
        pats = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=np.uint8)
        faults = [
            StuckAtFault("out", 0),  # PO site, excited only by row 1
            StuckAtFault("out", 1),  # PO site, excited by rows 0, 2, 3
            StuckAtFault("a", 0),  # PI + PO site
            StuckAtFault("one", 1),  # constant at its stuck value: never excited
            StuckAtFault("m", 1),  # detected wherever m = 0
        ]
        masks = FaultSimulator(c).detection_masks(pats, faults)
        assert masks == [0b0010, 0b1101, 0b0110, 0, 0b1101]
        assert FaultSimulator(c).detection_masks(pats[:0], faults) == [0] * 5

    def test_never_excited_by_constant_patterns(self, c17_circuit):
        sim = FaultSimulator(c17_circuit)
        zeros = np.zeros((70, len(c17_circuit.inputs)), dtype=np.uint8)
        masks = sim.detection_masks(zeros, [StuckAtFault(pi, 0) for pi in c17_circuit.inputs])
        assert masks == [0] * len(c17_circuit.inputs)

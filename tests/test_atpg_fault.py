"""Unit tests for the stuck-at fault model and collapsing."""

import pytest

from repro.atpg import StuckAtFault, collapse_faults, full_fault_list
from repro.atpg.fault import representative_of
from repro.netlist import Circuit, GateType


class TestStuckAtFault:
    def test_value_validation(self):
        with pytest.raises(ValueError):
            StuckAtFault("n", 2)

    def test_string_form(self):
        assert str(StuckAtFault("N10", 1)) == "N10/sa1"

    def test_hashable_and_ordered(self):
        faults = {StuckAtFault("a", 0), StuckAtFault("a", 0), StuckAtFault("a", 1)}
        assert len(faults) == 2
        assert sorted(faults)[0] == StuckAtFault("a", 0)


class TestFullFaultList:
    def test_two_per_net(self, c17_circuit):
        faults = full_fault_list(c17_circuit)
        assert len(faults) == 2 * len(c17_circuit.nets)

    def test_inputs_optional(self, c17_circuit):
        faults = full_fault_list(c17_circuit, include_inputs=False)
        assert len(faults) == 2 * c17_circuit.num_logic_gates

    def test_constants_excluded(self, tiny_and_circuit):
        tiny_and_circuit.add_gate("one", GateType.TIE1, ())
        tiny_and_circuit.set_output("one")
        faults = full_fault_list(tiny_and_circuit)
        assert all(f.net != "one" for f in faults)


class TestCollapse:
    def test_inverter_chain_collapses(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("n1", GateType.NOT, ("a",))
        c.add_gate("n2", GateType.NOT, ("n1",))
        c.set_output("n2")
        collapsed = collapse_faults(c)
        # 6 raw faults (a, n1, n2 x 2) collapse into 2 classes.
        assert len(collapsed) == 2

    def test_and_gate_collapse_count(self, tiny_and_circuit):
        # AND2: raw faults = 6.  Equivalences: a/sa0 == b/sa0 == out/sa0.
        # Classes: {a0,b0,out0}, {a1}, {b1}, {out1} -> 4.
        collapsed = collapse_faults(tiny_and_circuit)
        assert len(collapsed) == 4

    def test_fanout_stems_not_collapsed(self, c17_circuit):
        # N11 feeds two gates; its faults must stay distinct from gate-input
        # equivalences at either reader.
        collapsed = collapse_faults(c17_circuit)
        nets = {f.net for f in collapsed}
        assert "N11" in nets

    def test_representative_chosen_downstream(self, tiny_and_circuit):
        collapsed = collapse_faults(tiny_and_circuit)
        zero_class_rep = [f for f in collapsed if f.value == 0]
        # The sa0 class representative should be the gate output (level 1),
        # not a primary input.
        assert zero_class_rep == [StuckAtFault("out", 0)]

    def test_representative_of_maps_member_to_class(self, tiny_and_circuit):
        collapsed = collapse_faults(tiny_and_circuit)
        rep = representative_of(tiny_and_circuit, StuckAtFault("a", 0), collapsed)
        assert rep == StuckAtFault("out", 0)

    def test_collapse_preserves_detection_semantics(self, c17_circuit, rng):
        """A test set detects a fault iff it detects its representative."""
        import numpy as np

        from repro.atpg import FaultSimulator

        collapsed = collapse_faults(c17_circuit)
        raw = full_fault_list(c17_circuit)
        pats = (rng.random((20, 5)) < 0.5).astype(np.uint8)
        sim = FaultSimulator(c17_circuit)
        detected_raw = set(sim.run(pats, raw).detected)
        for fault in raw:
            rep = representative_of(c17_circuit, fault, collapsed)
            if rep is None:
                continue
            assert (fault in detected_raw) == (rep in detected_raw), (fault, rep)

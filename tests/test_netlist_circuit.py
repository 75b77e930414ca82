"""Unit tests for the Circuit container."""

import pytest

from repro.netlist import Circuit, GateType, NetlistError


def build_chain():
    c = Circuit("chain")
    c.add_input("a")
    c.add_gate("n1", GateType.NOT, ("a",))
    c.add_gate("n2", GateType.NOT, ("n1",))
    c.set_output("n2")
    return c


class TestConstruction:
    def test_duplicate_net_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_gate("a", GateType.NOT, ("a",))

    def test_add_gate_rejects_input_type(self):
        c = Circuit()
        with pytest.raises(NetlistError):
            c.add_gate("x", GateType.INPUT)

    def test_set_output_idempotent(self):
        c = build_chain()
        c.set_output("n2")
        assert c.outputs.count("n2") == 1

    def test_unset_output(self):
        c = build_chain()
        c.unset_output("n2")
        assert "n2" not in c.outputs

    def test_len_counts_all_nets(self, tiny_and_circuit):
        assert len(tiny_and_circuit) == 3
        assert tiny_and_circuit.num_logic_gates == 1


class TestQueries:
    def test_gate_lookup_error(self):
        c = Circuit()
        with pytest.raises(NetlistError):
            c.gate("missing")

    def test_fanout(self, c17_circuit):
        assert set(c17_circuit.fanout("N11")) == {"N16", "N19"}
        assert c17_circuit.fanout("N22") == ()

    def test_fanout_reports_undriven_reader(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", GateType.AND, ("a", "phantom"))
        with pytest.raises(NetlistError):
            c.fanout("a")

    def test_topological_order_respects_edges(self, c17_circuit):
        order = c17_circuit.topological_order()
        pos = {net: i for i, net in enumerate(order)}
        for gate in c17_circuit.gates():
            for src in gate.inputs:
                assert pos[src] < pos[gate.name]

    def test_combinational_cycle_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("x", GateType.AND, ("a", "y"))
        c.add_gate("y", GateType.AND, ("a", "x"))
        with pytest.raises(NetlistError, match="cycle"):
            c.topological_order()

    def test_dff_breaks_cycle(self):
        c = Circuit()
        c.add_input("clk")
        c.add_gate("q", GateType.DFF, ("qn", "clk"))
        c.add_gate("qn", GateType.NOT, ("q",))
        c.set_output("q")
        order = c.topological_order()
        assert set(order) == {"clk", "q", "qn"}
        assert c.is_sequential

    def test_levels_and_depth(self, c17_circuit):
        levels = c17_circuit.levels()
        assert levels["N1"] == 0
        assert levels["N10"] == 1
        assert levels["N16"] == 2
        assert levels["N22"] == 3
        assert c17_circuit.depth() == 3

    def test_fanin_cone(self, c17_circuit):
        cone = c17_circuit.fanin_cone("N22")
        assert cone == {"N22", "N10", "N16", "N1", "N2", "N3", "N6", "N11"}

    def test_fanout_cone(self, c17_circuit):
        cone = c17_circuit.fanout_cone("N11")
        assert cone == {"N11", "N16", "N19", "N22", "N23"}

    def test_stats_histogram(self, c17_circuit):
        stats = c17_circuit.stats()
        assert stats["NAND"] == 6
        assert stats["#inputs"] == 5
        assert stats["#outputs"] == 2


class TestMutation:
    def test_remove_gate_requires_no_fanout(self, c17_circuit):
        with pytest.raises(NetlistError):
            c17_circuit.remove_gate("N11")

    def test_remove_output_requires_unset(self, c17_circuit):
        with pytest.raises(NetlistError):
            c17_circuit.remove_gate("N22")
        c17_circuit.unset_output("N22")
        c17_circuit.remove_gate("N22")
        assert not c17_circuit.has_net("N22")

    def test_remove_gates_takes_a_closed_set(self, c17_circuit):
        c17_circuit.unset_output("N22")
        c17_circuit.unset_output("N23")
        names = ["N11", "N22", "N16", "N23", "N19", "N10"]  # any order
        removed = c17_circuit.remove_gates(names)
        assert [g.name for g in removed] == names
        assert c17_circuit.nets == c17_circuit.inputs
        assert c17_circuit.fanout("N3") == ()

    @pytest.mark.parametrize(
        "names",
        [["N22", "N10", "N11"], ["N23"], ["nope"], ["N10", "N10"]],
        ids=["surviving-reader", "primary-output", "undriven", "duplicate"],
    )
    def test_remove_gates_checks_before_editing(self, c17_circuit, names):
        c17_circuit.unset_output("N22")  # N22 and N10 could go; N11 feeds N16
        before = c17_circuit.copy()
        with pytest.raises(NetlistError):
            c17_circuit.remove_gates(names)
        assert c17_circuit.nets == before.nets
        assert c17_circuit.structural_fingerprint() == before.structural_fingerprint()

    def test_remove_no_gates_keeps_caches(self, c17_circuit):
        fanout = c17_circuit._fanout_map()
        assert c17_circuit.remove_gates([]) == []
        assert c17_circuit._fanout_map() is fanout

    def test_replace_gate_preserves_fanout(self, c17_circuit):
        c17_circuit.replace_gate("N10", GateType.TIE0, ())
        assert c17_circuit.gate("N10").gate_type is GateType.TIE0
        assert "N10" in c17_circuit.gate("N22").inputs

    def test_replace_rejects_inputs(self, c17_circuit):
        with pytest.raises(NetlistError):
            c17_circuit.replace_gate("N1", GateType.TIE0, ())

    def test_rewire_input(self, c17_circuit):
        c17_circuit.rewire_input("N22", "N10", "N19")
        assert c17_circuit.gate("N22").inputs == ("N19", "N16")

    def test_rewire_missing_connection(self, c17_circuit):
        with pytest.raises(NetlistError):
            c17_circuit.rewire_input("N22", "N11", "N19")

    def test_rename_net_updates_everything(self, c17_circuit):
        c17_circuit.rename_net("N11", "mid")
        assert c17_circuit.has_net("mid")
        assert not c17_circuit.has_net("N11")
        assert "mid" in c17_circuit.gate("N16").inputs
        assert "mid" in c17_circuit.gate("N19").inputs

    def test_rename_output_net(self, c17_circuit):
        c17_circuit.rename_net("N22", "out_a")
        assert "out_a" in c17_circuit.outputs

    def test_copy_is_independent(self, c17_circuit):
        dup = c17_circuit.copy()
        dup.unset_output("N22")
        dup.remove_gate("N22")
        assert c17_circuit.has_net("N22")
        assert "N22" in c17_circuit.outputs

    def test_is_sequential_follows_edits(self, c17_circuit):
        c = c17_circuit
        assert not c.is_sequential
        before = c.copy()
        c.add_gate("q", GateType.DFF, ("N22", "N1"))
        assert c.is_sequential
        assert not before.is_sequential  # the copy's cached answer is its own
        carried = c.copy()
        assert carried._sequential_cache is True and carried.is_sequential
        c.rename_net("q", "state")
        assert c.is_sequential
        c.replace_gate("state", GateType.NOT, ("N22",))
        assert not c.is_sequential
        assert carried.is_sequential
        c.replace_gate("state", GateType.DFF, ("N22", "N1"))
        assert c.is_sequential
        c.remove_gates(["state"])
        assert not c.is_sequential

    def test_mutation_invalidates_caches(self, c17_circuit):
        order_before = c17_circuit.topological_order()
        c17_circuit.unset_output("N23")
        c17_circuit.remove_gate("N23")
        order_after = c17_circuit.topological_order()
        assert "N23" in order_before
        assert "N23" not in order_after

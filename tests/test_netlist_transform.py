"""Unit tests for netlist transforms, with functional-preservation checks."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import BENCHMARKS, c17, c432_like, c499_like, c880_like, c3540_like
from repro.netlist import (
    FIXED_ARITY,
    Circuit,
    GateType,
    insert_mux_on_net,
    optimize_netlist,
    strip_dead_logic,
    tie_net_to_constant,
)
from repro.sim import compare_exhaustive, exhaustive_patterns, simulate
from repro.trojan import insert_counter_trojan
from tests.oracles import (
    netlist_structure,
    reference_optimize_netlist,
    reference_strip_dead_logic,
)
from tests.test_properties import random_circuits


class TestTieNetToConstant:
    def test_tie_to_one(self, tiny_and_circuit):
        tie_net_to_constant(tiny_and_circuit, "out", 1)
        assert tiny_and_circuit.gate("out").gate_type is GateType.TIE1

    def test_tie_to_zero(self, tiny_and_circuit):
        tie_net_to_constant(tiny_and_circuit, "out", 0)
        out = simulate(tiny_and_circuit, exhaustive_patterns(2))
        assert not out.any()

    def test_invalid_constant_rejected(self, tiny_and_circuit):
        with pytest.raises(ValueError):
            tie_net_to_constant(tiny_and_circuit, "out", 2)


class TestStripDeadLogic:
    def test_strips_unreachable_cone(self, rare_node_circuit):
        tie_net_to_constant(rare_node_circuit, "rare", 0)
        removed = strip_dead_logic(rare_node_circuit)
        # r1 and r2 fed only the tied node; both must go.
        assert set(removed) == {"r1", "r2"}
        assert not rare_node_circuit.has_net("r1")

    def test_keeps_live_logic(self, c17_circuit):
        assert strip_dead_logic(c17_circuit) == []

    def test_protect_list(self, rare_node_circuit):
        tie_net_to_constant(rare_node_circuit, "rare", 0)
        removed = strip_dead_logic(rare_node_circuit, protect=["r1"])
        assert "r1" not in removed
        assert "r2" in removed

    def test_never_removes_inputs(self, rare_node_circuit):
        rare_node_circuit.unset_output("z")
        strip_dead_logic(rare_node_circuit)
        assert rare_node_circuit.has_net("b")  # input b only fed z


class TestStripDeadLogicOracle:
    """The one-edit peel removes exactly what one-``remove_gate``-at-a-time
    waves remove, in the same order."""

    @staticmethod
    def _assert_matches_oracle(circuit, protect=()):
        reference = circuit.copy()
        removed = strip_dead_logic(circuit, protect)
        assert removed == reference_strip_dead_logic(reference, protect)
        assert circuit.nets == reference.nets

    @pytest.mark.parametrize("build", [c17, c432_like, c499_like, c880_like, c3540_like])
    def test_iscas_with_ties(self, build):
        circuit = build()
        rng = np.random.default_rng(7)
        nets = circuit.internal_nets()
        for net in rng.choice(nets, size=max(1, len(nets) // 12), replace=False):
            tie_net_to_constant(circuit, str(net), int(rng.integers(2)))
        self._assert_matches_oracle(circuit)

    def test_dead_logic_behind_a_dff_loop(self):
        circuit = c432_like()
        insert_counter_trojan(
            circuit, victim=circuit.outputs[0], clock_source=circuit.internal_nets()[9],
            n_bits=3,
        )
        # Orphan a chain and a self-looping DFF: the DFF keeps reading itself.
        circuit.add_gate("loop", GateType.DFF, ("loop_d", circuit.inputs[0]))
        circuit.add_gate("loop_d", GateType.NOT, ("loop",))
        circuit.add_gate("tail", GateType.AND, ("loop", circuit.inputs[1]))
        self._assert_matches_oracle(circuit, protect=[circuit.internal_nets()[3]])

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_circuits(max_gates=30), st.integers(0, 2**31))
    def test_random_circuits(self, circuit, seed):
        rng = np.random.default_rng(seed)
        for net in circuit.internal_nets():
            if rng.random() < 0.2:
                tie_net_to_constant(circuit, net, int(rng.integers(2)))
        outputs = list(circuit.outputs)
        for net in outputs[1:]:
            if rng.random() < 0.5:
                circuit.unset_output(net)
        self._assert_matches_oracle(circuit)


def _optimized(circuit):
    """``optimize_netlist(circuit)``, checked against the per-pass oracle."""
    optimized = optimize_netlist(circuit)
    assert netlist_structure(optimized) == netlist_structure(reference_optimize_netlist(circuit))
    return optimized


_CLEANUP_CHOICES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.MUX,
    GateType.NOT,
    GateType.NOT,
    GateType.NOT,
    GateType.BUFF,
    GateType.BUFF,
    GateType.BUFF,
    GateType.TIE0,
    GateType.TIE1,
]


@st.composite
def cleanup_circuits(draw, max_gates=30):
    """Random netlist rich in what synthesis cleanup rewrites: TIE cells,
    BUFF/NOT chains, buffers and inverters on primary outputs, MUXes, dead
    logic, and DFFs whose D input may be any gate (sequential loops)."""
    circuit = Circuit("cleanup")
    available = [circuit.add_input(f"i{k}") for k in range(draw(st.integers(1, 4)))]
    n_gates = draw(st.integers(1, max_gates))
    for k in range(draw(st.integers(0, 3))):
        d_input = f"g{draw(st.integers(0, n_gates - 1))}"
        clock = draw(st.sampled_from(available))
        available.append(circuit.add_gate(f"q{k}", GateType.DFF, (d_input, clock)))
    for g in range(n_gates):
        gate_type = draw(st.sampled_from(_CLEANUP_CHOICES))
        if gate_type in FIXED_ARITY:
            arity = FIXED_ARITY[gate_type]
        else:
            arity = draw(st.integers(2, 3))
        # Half the pins read the newest net, which builds BUFF/NOT chains.
        inputs = [
            available[-1] if draw(st.booleans()) else draw(st.sampled_from(available))
            for _ in range(arity)
        ]
        available.append(circuit.add_gate(f"g{g}", gate_type, inputs))
    logic = circuit.internal_nets()
    sinks = [net for net in logic if not circuit.fanout(net)]
    dropped = draw(st.sets(st.sampled_from(sinks))) if sinks else set()
    extra = draw(st.lists(st.sampled_from(logic), max_size=4))
    for net in [n for n in sinks if n not in dropped] + extra:
        circuit.set_output(net)
    if not circuit.outputs:
        circuit.set_output(logic[-1])
    return circuit


class TestOptimizeNetlistOracle:
    """The one forward pass builds exactly the gate map that the per-gate
    passes reach at their fixed point, gate-map order included."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_registered_benchmarks(self, name):
        _optimized(BENCHMARKS[name]())

    def test_counter_trojan_and_dff_loop(self):
        circuit = c432_like()
        insert_counter_trojan(
            circuit, victim=circuit.outputs[0], clock_source=circuit.internal_nets()[9],
            n_bits=3,
        )
        # A DFF loop through a collapsible buffer: the DFF, listed first,
        # must end up reading the buffer's source.
        circuit.add_gate("loop", GateType.DFF, ("loop_b", circuit.inputs[0]))
        circuit.add_gate("loop_b", GateType.BUFF, ("loop_d",))
        circuit.add_gate("loop_d", GateType.NOT, ("loop",))
        circuit.set_output("loop_d")
        assert _optimized(circuit).gate("loop").inputs[0] == "loop_d"

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cleanup_circuits())
    def test_random_circuits(self, circuit):
        _optimized(circuit)

    def test_leaves_its_input_unchanged(self, c880_circuit):
        before = netlist_structure(c880_circuit)
        optimize_netlist(c880_circuit)
        assert netlist_structure(c880_circuit) == before


class TestPropagateConstants:
    def test_and_with_zero_folds_to_tie0(self, tiny_and_circuit):
        tiny_and_circuit.add_gate("zero", GateType.TIE0, ())
        tiny_and_circuit.replace_gate("out", GateType.AND, ("a", "zero"))
        folded = _optimized(tiny_and_circuit)
        assert folded.gate("out").gate_type is GateType.TIE0

    def test_and_with_one_drops_input(self, tiny_and_circuit):
        tiny_and_circuit.add_gate("one", GateType.TIE1, ())
        tiny_and_circuit.replace_gate("out", GateType.AND, ("a", "b", "one"))
        gate = _optimized(tiny_and_circuit).gate("out")
        assert gate.gate_type is GateType.AND
        assert set(gate.inputs) == {"a", "b"}

    def test_nand_single_remaining_becomes_not(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("one", GateType.TIE1, ())
        c.add_gate("out", GateType.NAND, ("a", "one"))
        c.set_output("out")
        assert _optimized(c).gate("out").gate_type is GateType.NOT

    def test_xor_parity_absorbs_constants(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("one", GateType.TIE1, ())
        c.add_gate("out", GateType.XOR, ("a", "one"))
        c.set_output("out")
        assert _optimized(c).gate("out").gate_type is GateType.NOT

    def test_mux_constant_select(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("one", GateType.TIE1, ())
        c.add_gate("out", GateType.MUX, ("a", "b", "one"))
        c.set_output("out")
        gate = _optimized(c).gate("out")
        assert gate.gate_type is GateType.BUFF
        assert gate.inputs == ("b",)

    def test_mux_constant_data_becomes_select_function(self):
        c = Circuit()
        c.add_input("s")
        c.add_gate("zero", GateType.TIE0, ())
        c.add_gate("one", GateType.TIE1, ())
        c.add_gate("out", GateType.MUX, ("one", "zero", "s"))
        c.set_output("out")
        assert _optimized(c).gate("out").gate_type is GateType.NOT

    def test_chain_folds_transitively(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("zero", GateType.TIE0, ())
        c.add_gate("m", GateType.OR, ("zero", "zero"))
        c.add_gate("out", GateType.AND, ("a", "m"))
        c.set_output("out")
        assert _optimized(c).gate("out").gate_type is GateType.TIE0

    def test_fold_preserves_function_on_c17_with_tie(self, c17_circuit):
        # Tie an internal net and check folding agrees with the tied circuit.
        tied = c17_circuit.copy("tied")
        tie_net_to_constant(tied, "N10", 1)
        assert compare_exhaustive(tied, _optimized(tied)).equivalent


class TestCollapsePasses:
    def test_collapse_buffers(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("buf", GateType.BUFF, ("a",))
        c.add_gate("out", GateType.NOT, ("buf",))
        c.set_output("out")
        collapsed = _optimized(c)
        assert not collapsed.has_net("buf")
        assert collapsed.gate("out").inputs == ("a",)

    def test_buffer_driving_output_kept(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("buf", GateType.BUFF, ("a",))
        c.set_output("buf")
        assert netlist_structure(_optimized(c)) == netlist_structure(c)

    def test_collapse_inverter_pairs(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("n1", GateType.NOT, ("a",))
        c.add_gate("n2", GateType.NOT, ("n1",))
        c.add_gate("out", GateType.AND, ("n2", "a"))
        c.set_output("out")
        before = simulate(c, exhaustive_patterns(1))
        collapsed = _optimized(c)
        after = simulate(collapsed, exhaustive_patterns(1))
        assert (before == after).all()
        assert collapsed.gate("out").inputs == ("a", "a")
        assert collapsed.internal_nets() == ["out"]


class TestInsertMux:
    def test_splice_redirects_readers(self, c17_circuit):
        c17_circuit.add_input("sel")
        c17_circuit.add_input("alt")
        mux = insert_mux_on_net(c17_circuit, "N11", "alt", "sel")
        assert mux in c17_circuit.gate("N16").inputs
        assert mux in c17_circuit.gate("N19").inputs
        assert c17_circuit.gate(mux).inputs == ("N11", "alt", "sel")

    def test_splice_on_primary_output_keeps_pad_name(self, c17_circuit):
        c17_circuit.add_input("sel")
        c17_circuit.add_input("alt")
        mux = insert_mux_on_net(c17_circuit, "N22", "alt", "sel")
        # The chip interface is unchanged: the output is still called N22,
        # now driven by the payload MUX; the old driver became N22_pre.
        assert mux == "N22"
        assert "N22" in c17_circuit.outputs
        assert c17_circuit.gate("N22").gate_type is GateType.MUX
        assert c17_circuit.has_net("N22_pre")

    def test_inverting_payload_does_not_create_cycle(self, c17_circuit):
        c17_circuit.add_input("sel")
        c17_circuit.add_gate("alt", GateType.NOT, ("N11",))
        insert_mux_on_net(c17_circuit, "N11", "alt", "sel")
        c17_circuit.topological_order()  # must not raise

    def test_select_in_fanout_does_not_create_cycle(self, c17_circuit):
        # Select derived from the victim itself: the classic trap.
        c17_circuit.add_input("alt")
        c17_circuit.add_gate("sel", GateType.BUFF, ("N11",))
        insert_mux_on_net(c17_circuit, "N11", "alt", "sel")
        c17_circuit.topological_order()

    def test_functional_transparency_when_select_low(self, c17_circuit):
        golden = c17_circuit.copy("golden")
        c17_circuit.add_input("sel")
        c17_circuit.add_gate("alt", GateType.NOT, ("N11",))
        insert_mux_on_net(c17_circuit, "N11", "alt", "sel")
        pats = exhaustive_patterns(5)
        golden_out = simulate(golden, pats)
        # Same patterns with sel stuck at 0 (appended as the 6th input).
        pats6 = np.concatenate([pats, np.zeros((pats.shape[0], 1), np.uint8)], axis=1)
        infected_out = simulate(c17_circuit, pats6)
        assert (golden_out == infected_out).all()

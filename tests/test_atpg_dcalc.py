"""Unit tests for the 3-valued D-calculus: the test-side ``evaluate3`` kernel
and the per-type functions and truth tables PODEM evaluates with."""

import itertools

import pytest

from repro.atpg.dcalc import EVALUATE, X, truth_table
from repro.netlist import GateType
from tests.oracles import d_symbol, evaluate3, v_and, v_mux, v_not, v_or, v_xor

#: Input counts the engine sees per type (1-input AND/OR/XOR included).
ARITIES = {
    GateType.NOT: (1,),
    GateType.BUFF: (1,),
    GateType.MUX: (3,),
    GateType.TIE0: (0,),
    GateType.TIE1: (0,),
}


class TestThreeValuedKernels:
    def test_and_zero_dominates_x(self):
        assert v_and([0, X]) == 0
        assert v_and([X, 1]) == X
        assert v_and([1, 1]) == 1

    def test_or_one_dominates_x(self):
        assert v_or([1, X]) == 1
        assert v_or([X, 0]) == X
        assert v_or([0, 0]) == 0

    def test_xor_poisoned_by_x(self):
        assert v_xor([X, 1]) == X
        assert v_xor([1, 1]) == 0
        assert v_xor([1, 0, 1]) == 0

    def test_not(self):
        assert v_not(X) == X
        assert v_not(0) == 1

    def test_mux_select_known(self):
        assert v_mux(0, X, 0) == 0
        assert v_mux(X, 1, 1) == 1

    def test_mux_select_unknown(self):
        assert v_mux(1, 1, X) == 1  # both branches agree
        assert v_mux(0, 1, X) == X
        assert v_mux(X, X, X) == X


class TestEvaluate3:
    @pytest.mark.parametrize(
        "gate_type",
        [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR, GateType.XOR,
         GateType.XNOR],
    )
    def test_agrees_with_binary_on_determined_inputs(self, gate_type):
        from repro.netlist import evaluate_gate

        for bits in itertools.product((0, 1), repeat=3):
            assert evaluate3(gate_type, bits) == evaluate_gate(gate_type, bits)

    def test_constants(self):
        assert evaluate3(GateType.TIE0, []) == 0
        assert evaluate3(GateType.TIE1, []) == 1

    def test_monotone_wrt_information(self):
        """Refining an X input must never flip a determined output."""
        for gate_type in (GateType.AND, GateType.OR, GateType.XOR, GateType.NAND):
            for known in itertools.product((0, 1), repeat=2):
                with_x = evaluate3(gate_type, (known[0], X))
                if with_x == X:
                    continue
                for refinement in (0, 1):
                    refined = evaluate3(gate_type, (known[0], refinement))
                    assert refined == with_x


class TestEngineEvaluators:
    """``dcalc.EVALUATE`` and ``dcalc.truth_table`` equal ``evaluate3`` on
    every input combination over {0, 1, X}."""

    @pytest.mark.parametrize("gate_type", sorted(EVALUATE, key=lambda gt: gt.value))
    def test_equal_evaluate3_everywhere(self, gate_type):
        for arity in ARITIES.get(gate_type, (1, 2, 3, 4)):
            table = truth_table(gate_type, arity)
            assert len(table) == 3**arity
            for values in itertools.product((0, 1, X), repeat=arity):
                want = evaluate3(gate_type, values)
                assert EVALUATE[gate_type](list(values)) == want, (gate_type, values)
                index = 0
                for value in values:
                    index = index * 3 + value
                assert table[index] == want, (gate_type, values)


class TestDSymbols:
    def test_rendering(self):
        assert d_symbol(1, 0) == "D"
        assert d_symbol(0, 1) == "D'"
        assert d_symbol(1, 1) == "1"
        assert d_symbol(X, 0) == "X"

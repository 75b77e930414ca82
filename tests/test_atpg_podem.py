"""Unit tests for PODEM: completeness on c17, validity, redundancy, aborts."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.atpg import (
    FaultSimulator,
    PodemEngine,
    PodemStatus,
    StuckAtFault,
    collapse_faults,
    full_fault_list,
    generate_test,
)
from repro.atpg.dcalc import X, evaluate3
from repro.core.thresholds import DefenderModel
from repro.netlist import Circuit, GateType
from tests.test_properties import random_circuits


def full_imply(engine, assignment, fault):
    """From-scratch two-plane 3-valued simulation (the oracle for the
    engine's event-driven implication), over the engine's net positions."""
    circuit = engine.circuit
    good, faulty = [], []
    for net in engine._order:
        gate = circuit.gate(net)
        if gate.gate_type is GateType.INPUT:
            g_val = f_val = assignment.get(net, X)
        else:
            ins = [engine._pos[i] for i in gate.inputs]
            g_val = evaluate3(gate.gate_type, [good[i] for i in ins])
            f_val = evaluate3(gate.gate_type, [faulty[i] for i in ins])
        if net == fault.net:
            f_val = fault.value  # the net is stuck, unconditionally
        good.append(g_val)
        faulty.append(f_val)
    return good, faulty


class FullImplyPodem(PodemEngine):
    """PODEM that re-simulates the whole circuit on every decision."""

    def _imply(self, assignment, fault):
        return full_imply(self, assignment, fault)


def full_d_frontier(engine, good, faulty):
    """Every gate, in topological order, that is X on a plane and reads a D."""
    frontier = []
    for row, net in enumerate(engine._order):
        gate = engine.circuit.gate(net)
        if gate.is_input or gate.is_constant:
            continue
        if good[row] != X and faulty[row] != X:
            continue
        ins = [engine._pos[i] for i in gate.inputs]
        if any(X not in (good[i], faulty[i]) and good[i] != faulty[i] for i in ins):
            frontier.append(row)
    return frontier


class CheckedPodem(PodemEngine):
    """PODEM that checks its incremental planes and its cone-restricted
    D-frontier after every step."""

    steps = 0

    def _imply(self, assignment, fault):
        good, faulty = super()._imply(assignment, fault)
        assert (good, faulty) == full_imply(self, assignment, fault), (fault, assignment)
        CheckedPodem.steps += 1
        return good, faulty

    def _d_frontier(self, good, faulty):
        frontier = super()._d_frontier(good, faulty)
        assert frontier == full_d_frontier(self, good, faulty)
        return frontier


class TestPodemOnC17:
    def test_every_fault_testable_and_test_valid(self, c17_circuit):
        """c17 is fully testable; each PODEM vector must really detect."""
        engine = PodemEngine(c17_circuit, backtrack_limit=100)
        simulator = FaultSimulator(c17_circuit)
        for fault in full_fault_list(c17_circuit):
            result = engine.generate(fault)
            assert result.status is PodemStatus.DETECTED, fault
            vector = np.array(
                [[result.test[pi] for pi in c17_circuit.inputs]], dtype=np.uint8
            )
            assert simulator.detects(vector, fault), fault

    def test_collapsed_list_also_covered(self, c17_circuit):
        engine = PodemEngine(c17_circuit)
        for fault in collapse_faults(c17_circuit):
            assert engine.generate(fault).detected


class TestRedundantFaults:
    def test_redundant_fault_untestable(self):
        """out = OR(a, AND(a, b)) absorbs: the AND output sa0 is redundant."""
        c = Circuit("redundant")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("m", GateType.AND, ("a", "b"))
        c.add_gate("out", GateType.OR, ("a", "m"))
        c.set_output("out")
        result = generate_test(c, StuckAtFault("m", 0), backtrack_limit=200)
        assert result.status is PodemStatus.UNTESTABLE

    def test_constant_fed_fault_untestable(self):
        c = Circuit("tied")
        c.add_input("a")
        c.add_gate("one", GateType.TIE1, ())
        c.add_gate("out", GateType.AND, ("a", "one"))
        c.set_output("out")
        # 'one' stuck-at-1 is the existing value: unexcitable.
        result = generate_test(c, StuckAtFault("one", 1))
        assert result.status is PodemStatus.UNTESTABLE

    def test_unobservable_fault_untestable(self):
        c = Circuit("unobs")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("dead", GateType.AND, ("a", "b"))
        c.add_gate("out", GateType.NOT, ("a",))
        c.add_gate("sink", GateType.BUFF, ("dead",))
        c.set_output("out")
        result = generate_test(c, StuckAtFault("dead", 0))
        assert result.status is PodemStatus.UNTESTABLE


class TestBacktrackLimit:
    def test_zero_budget_aborts_conflicted_faults(self):
        """A fault needing backtracks aborts under a zero budget.

        out = AND(XOR(a,b), XNOR(a,b)) is constant 0; exciting it to 1 forces
        contradictory requirements, so the search must backtrack (and with
        limit 0, abort rather than prove redundancy).
        """
        c = Circuit("conflict")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("x1", GateType.XOR, ("a", "b"))
        c.add_gate("x2", GateType.XNOR, ("a", "b"))
        c.add_gate("out", GateType.AND, ("x1", "x2"))
        c.set_output("out")
        result = generate_test(c, StuckAtFault("out", 0), backtrack_limit=0)
        assert result.status is PodemStatus.ABORTED
        # With budget the same fault is proven untestable.
        result = generate_test(c, StuckAtFault("out", 0), backtrack_limit=50)
        assert result.status is PodemStatus.UNTESTABLE

    def test_backtracks_counted(self, c17_circuit):
        engine = PodemEngine(c17_circuit, backtrack_limit=100)
        results = [engine.generate(f) for f in full_fault_list(c17_circuit)]
        assert all(r.backtracks <= 100 for r in results)


class TestIncrementalImplyOracle:
    """Event-driven implication vs. full re-simulation on every decision."""

    @pytest.mark.parametrize("circuit_name", ["c432_circuit", "c499_circuit"])
    def test_results_match_full_imply(self, circuit_name, request):
        circuit = request.getfixturevalue(circuit_name)
        limit = DefenderModel().atpg.backtrack_limit
        engine = PodemEngine(circuit, backtrack_limit=limit)
        oracle = FullImplyPodem(circuit, backtrack_limit=limit)
        for fault in collapse_faults(circuit):
            got, want = engine.generate(fault), oracle.generate(fault)
            assert (got.status, got.test, got.backtracks, got.decisions) == (
                want.status,
                want.test,
                want.backtracks,
                want.decisions,
            ), fault

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_circuits(max_gates=16))
    def test_planes_equal_full_resimulation_every_step(self, circuit):
        engine = CheckedPodem(circuit, backtrack_limit=8)
        for fault in full_fault_list(circuit):
            engine.generate(fault)

    def test_check_really_runs_with_backtracking(self, c432_circuit):
        CheckedPodem.steps = 0
        engine = CheckedPodem(c432_circuit, backtrack_limit=10)
        results = [engine.generate(f) for f in collapse_faults(c432_circuit)[:60]]
        assert CheckedPodem.steps > len(results)
        assert any(r.backtracks for r in results)


class TestPodemValidity:
    def test_test_vector_complete(self, c17_circuit):
        result = generate_test(c17_circuit, StuckAtFault("N22", 1))
        assert result.detected
        assert set(result.test) == set(c17_circuit.inputs)
        assert all(v in (0, 1) for v in result.test.values())

    def test_sequential_rejected(self):
        c = Circuit()
        c.add_input("clk")
        c.add_gate("q", GateType.DFF, ("qn", "clk"))
        c.add_gate("qn", GateType.NOT, ("q",))
        c.set_output("q")
        with pytest.raises(Exception):
            PodemEngine(c)

    def test_unknown_fault_site_rejected(self, c17_circuit):
        engine = PodemEngine(c17_circuit)
        with pytest.raises(Exception):
            engine.generate(StuckAtFault("nope", 0))

    def test_rare_excitation_found_on_wide_and(self, rare_node_circuit):
        """PODEM (unlike random testing) excites a 2^-8 node directly."""
        result = generate_test(rare_node_circuit, StuckAtFault("rare", 0))
        assert result.detected
        assert all(result.test[f"a{i}"] == 1 for i in range(8))
        # Observability through OR requires b = 0.
        assert result.test["b"] == 0

    def test_validity_on_benchmark_sample(self, c432_circuit, rng):
        """On a real-size circuit every claimed detection must be genuine."""
        engine = PodemEngine(c432_circuit, backtrack_limit=30)
        simulator = FaultSimulator(c432_circuit)
        faults = collapse_faults(c432_circuit)
        sample_idx = rng.choice(len(faults), size=40, replace=False)
        for idx in sample_idx:
            fault = faults[int(idx)]
            result = engine.generate(fault)
            if result.status is PodemStatus.DETECTED:
                vector = np.array(
                    [[result.test[pi] for pi in c432_circuit.inputs]], dtype=np.uint8
                )
                assert simulator.detects(vector, fault), fault

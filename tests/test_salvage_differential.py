"""Differential tests: Algorithm 1 as fault-effect walks vs. whole-circuit trials.

:func:`repro.core.salvage.salvage` decides each candidate by forcing it to
its tied value over N's per-row simulation values and following the
change forward through the gates it flips.  ``tests.oracles.reference_salvage`` decides it the direct way: tie
a copy of the working circuit, dead-strip it and run ``functional_test``
against N on every pattern set.  The two must agree field for field — the
candidates, every removal record (accepted or not, tied value, stripped
gates, reason), the modified circuit's gate map in order, and the power
after — on Hypothesis circuits, on the edge cases a walk could get wrong
(no pattern sets, zero-row sets, primary-output candidates, constants in
a cone, logic already dead in N), and on Phase A cells of c432, c499 and c880.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import c432_like, c499_like, c880_like
from repro.core.pipeline import phase_a
from repro.core.salvage import salvage
from repro.core.thresholds import DefenderModel
from repro.netlist import Circuit, GateType
from repro.sim import exhaustive_patterns
from tests.oracles import netlist_structure, reference_salvage
from tests.test_ppsfp import region_circuits


def assert_same_salvage(circuit, pattern_sets, library, p_threshold, **kwargs):
    got = salvage(circuit, pattern_sets, library, p_threshold, **kwargs)
    want = reference_salvage(circuit, pattern_sets, library, p_threshold, **kwargs)
    assert got.candidates == want.candidates
    assert got.removals == want.removals
    assert got.modified.name == want.modified.name
    assert netlist_structure(got.modified) == netlist_structure(want.modified)
    assert got.power_before == want.power_before
    assert got.power_after == want.power_after
    return got


def edge_circuit() -> Circuit:
    """Rare nodes at the places a fault-effect walk can go wrong.

    ``rare`` (P(1) = 2^-6) is a primary output that also feeds ``y``;
    ``low`` (P(1) = 2^-3) is a primary output with no readers; ``dz`` is a
    rare node no output reads (dead in N); ``k0`` is a TIE0 constant row
    inside a candidate's cone.
    """
    c = Circuit("edges")
    for k in range(7):
        c.add_input(f"a{k}")
    c.add_gate("r1", GateType.AND, ("a0", "a1", "a2"))
    c.add_gate("r2", GateType.AND, ("a3", "a4", "a5"))
    c.add_gate("rare", GateType.AND, ("r1", "r2"))
    c.add_gate("k0", GateType.TIE0)
    c.add_gate("y", GateType.OR, ("rare", "a6", "k0"))
    c.add_gate("low", GateType.AND, ("a0", "a3", "a6"))
    c.add_gate("dz", GateType.AND, ("r1", "a6"))
    for po in ("rare", "y", "low"):
        c.set_output(po)
    return c


class TestEdgeCases:
    def _blind(self):
        """Every 7-input vector except those that drive ``r1`` high."""
        pats = exhaustive_patterns(7)
        return pats[~pats[:, :3].all(axis=1)]

    def test_no_pattern_sets_accepts_every_trial(self, library):
        result = assert_same_salvage(edge_circuit(), [], library, 0.85)
        tried = [r for r in result.removals if r.tied_value != -1]
        assert tried and all(r.accepted for r in tried)

    def test_zero_row_pattern_sets(self, library):
        empty = np.zeros((0, 7), dtype=np.uint8)
        assert_same_salvage(edge_circuit(), [empty], library, 0.85)
        assert_same_salvage(edge_circuit(), [empty, self._blind()], library, 0.85)

    def test_primary_output_candidate_rejected_when_seen(self, library):
        result = assert_same_salvage(
            edge_circuit(), [exhaustive_patterns(7)], library, 0.85
        )
        verdicts = {r.net: r.accepted for r in result.removals}
        assert verdicts["rare"] is False and verdicts["low"] is False
        assert verdicts["dz"] is True  # dead in N: no pattern can see it

    def test_primary_output_candidate_accepted_when_blind(self, library):
        result = assert_same_salvage(edge_circuit(), [self._blind()], library, 0.85)
        accepted = {r.net for r in result.accepted_removals()}
        assert "rare" in accepted
        assert result.modified.gate("rare").gate_type is GateType.TIE0

    def test_tied_row_ignores_later_trials_upstream(self, library):
        """``rare`` is tied to 0 first; tying ``p`` to 1 later would drive
        ``rare`` to 1 on some patterns were it still an AND gate, and ``y``
        would show it.  Tied, it is a constant, and ``z`` masks ``p``."""
        c = Circuit("tied_upstream")
        for name in ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "b"):
            c.add_input(name)
        c.add_gate("p", GateType.OR, ("a0", "a1", "a2"))
        c.add_gate("rare", GateType.AND, ("p", "a3", "a4", "a5", "a6"))
        c.add_gate("y", GateType.OR, ("rare", "b"))
        c.add_gate("z", GateType.AND, ("p", "b"))
        c.set_output("y")
        c.set_output("z")
        pats = exhaustive_patterns(8)
        p = pats[:, :3].any(axis=1)
        keep = ~(p & pats[:, 3:7].all(axis=1)) & ~(~p & (pats[:, 7] == 1))
        result = assert_same_salvage(c, [pats[keep]], library, 0.85)
        assert [r.net for r in result.accepted_removals()] == ["rare", "p"]

    def test_max_candidates_and_split_sets(self, rare_node_circuit, library):
        pats = exhaustive_patterns(9)
        blind = pats[~pats[:, :8].all(axis=1)]
        sets = [blind[:100], blind[100:300], blind[300:]]
        assert_same_salvage(rare_node_circuit, sets, library, 0.99)
        assert_same_salvage(rare_node_circuit, sets, library, 0.6, max_candidates=2)


class TestHypothesisCircuits:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        circuit=region_circuits(),
        p_threshold=st.sampled_from([0.55, 0.7, 0.8, 0.9]),
        sizes=st.lists(st.integers(0, 130), min_size=0, max_size=3),
        p_one=st.sampled_from([0.2, 0.5, 0.8]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_whole_circuit_trials(
        self, library, circuit, p_threshold, sizes, p_one, seed
    ):
        rng = np.random.default_rng(seed)
        n_inputs = len(circuit.inputs)
        pattern_sets = [
            (rng.random((n, n_inputs)) < p_one).astype(np.uint8) for n in sizes
        ]
        assert_same_salvage(circuit, pattern_sets, library, p_threshold)


class TestPhaseACells:
    @pytest.mark.parametrize(
        "build, p_thresholds",
        [
            (c432_like, (0.9, 0.975)),
            (c499_like, (0.98, 0.993)),
            (c880_like, (0.97, 0.992)),
        ],
        ids=["c432", "c499", "c880"],
    )
    def test_matches_whole_circuit_trials(self, build, p_thresholds, library):
        report, _ = phase_a(build(), library, DefenderModel())
        for p_threshold in p_thresholds:
            result = assert_same_salvage(
                report.circuit,
                report.pattern_sets,
                library,
                p_threshold,
                power_before=report.power,
            )
            assert result.accepted_removals()
            assert any(not r.accepted for r in result.removals)

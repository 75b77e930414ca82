"""Unit tests for Algorithm 1 (salvaging power and area)."""

import numpy as np
import pytest

from repro.bench import c432_like
from repro.core import salvage
from repro.core.pipeline import phase_a
from repro.core.thresholds import DefenderModel
from repro.sim import compare_on_patterns, exhaustive_patterns
from repro.power import analyze


class TestSalvageOnEngineeredCircuit:
    def _patterns_missing_rare(self):
        """A defender TP set that never drives all of a0..a7 high."""
        pats = exhaustive_patterns(9)
        return [pats[~(pats[:, :8].all(axis=1))][:64]]

    def test_rare_node_removed_when_tests_blind(self, rare_node_circuit, library):
        result = salvage(
            rare_node_circuit, self._patterns_missing_rare(), library, 0.99
        )
        accepted = {r.net for r in result.accepted_removals()}
        assert "rare" in accepted
        # The private fan-in cone was harvested too.
        assert result.expendable_gates >= 3
        assert not result.modified.has_net("r1")

    def test_rare_node_kept_when_tests_see_it(self, rare_node_circuit, library):
        pats = exhaustive_patterns(9)  # includes the exciting vectors
        result = salvage(rare_node_circuit, [pats], library, 0.99)
        rejected = [r for r in result.removals if not r.accepted]
        assert any(r.net == "rare" for r in rejected)
        assert result.modified.has_net("r1")

    def test_modified_circuit_passes_defender_tests(self, rare_node_circuit, library):
        pattern_sets = self._patterns_missing_rare()
        result = salvage(rare_node_circuit, pattern_sets, library, 0.99)
        for pats in pattern_sets:
            assert compare_on_patterns(
                rare_node_circuit, result.modified, pats
            ).equivalent

    def test_budget_is_positive_after_removal(self, rare_node_circuit, library):
        result = salvage(
            rare_node_circuit, self._patterns_missing_rare(), library, 0.99
        )
        delta = result.delta
        assert delta.total_uw > 0
        assert delta.area_ge > 0

    def test_original_untouched(self, rare_node_circuit, library):
        before = rare_node_circuit.num_logic_gates
        salvage(rare_node_circuit, self._patterns_missing_rare(), library, 0.99)
        assert rare_node_circuit.num_logic_gates == before

    def test_max_candidates_cap(self, rare_node_circuit, library):
        result = salvage(
            rare_node_circuit,
            self._patterns_missing_rare(),
            library,
            0.99,
            max_candidates=1,
        )
        assert len(result.removals) <= 1

    def test_tied_polarity_matches_probability(self, rare_node_circuit, library):
        result = salvage(
            rare_node_circuit, self._patterns_missing_rare(), library, 0.99
        )
        for record in result.accepted_removals():
            if record.p_one < 0.5:
                assert record.tied_value == 0
            else:
                assert record.tied_value == 1

    def test_power_before_passthrough(self, rare_node_circuit, library):
        precomputed = analyze(rare_node_circuit, library)
        result = salvage(
            rare_node_circuit,
            self._patterns_missing_rare(),
            library,
            0.99,
            power_before=precomputed,
        )
        assert result.power_before is precomputed


class TestSalvageAccounting:
    def test_expendable_counts_stripped_and_tied(self, rare_node_circuit, library):
        pats = exhaustive_patterns(9)
        blind = [pats[~(pats[:, :8].all(axis=1))][:64]]
        result = salvage(rare_node_circuit, blind, library, 0.99)
        # 'rare' tied (1) + r1, r2 stripped (2) = 3 expendable gates minimum.
        stripped = sum(len(r.stripped_gates) for r in result.accepted_removals())
        tied = len(result.accepted_removals())
        assert result.expendable_gates == stripped + tied

    def test_no_candidates_when_threshold_too_high(self, c17_circuit, library):
        result = salvage(c17_circuit, [exhaustive_patterns(5)], library, 0.999)
        assert result.candidate_count == 0
        assert result.expendable_gates == 0
        assert result.power_after.total_uw == pytest.approx(
            result.power_before.total_uw
        )


class TestSalvageCompilesNothing:
    def test_phase_a_circuit_is_not_recompiled(self, library):
        """N arrives compiled from Phase A; every trial walks that form."""
        report, _ = phase_a(c432_like(), library, DefenderModel())
        result = salvage(
            report.circuit, report.pattern_sets, library, 0.975,
            power_before=report.power,
        )
        assert result.accepted_removals()
        assert any(not r.accepted for r in result.removals)
        stats = result.compile_stats
        assert stats["full_compiles"] == 0 and stats["patched_compiles"] == 0

"""Unit tests for Algorithm 2 internals: thresholds, padding, placement."""

import numpy as np
import pytest

from repro.bench import c17, c432_like, c3540_like
from repro.core.insertion import (
    InsertionConfig,
    _exceeds,
    _pad_with_dummies,
    insert_trojan_zero,
    rank_victims,
)
from repro.core.salvage import salvage
from repro.core.thresholds import compute_thresholds
from repro.netlist import GateType
from repro.power import analyze
from repro.power.analysis import PowerDelta
from repro.trojan import insert_counter_trojan
from repro.trojan.library import TrojanDesign
from tests.oracles import reference_rank_victims


def _delta(total=0.0, dynamic=0.0, leakage=0.0, area_ge=0.0):
    return PowerDelta(
        total_uw=total,
        dynamic_uw=dynamic,
        leakage_uw=leakage,
        area_ge=area_ge,
        area_um2=area_ge * 1.44,
    )


class TestThresholdChecks:
    @pytest.fixture()
    def baseline(self, c432_circuit, library):
        return analyze(c432_circuit, library)

    def test_within_tolerance_passes(self, baseline):
        delta = _delta(total=0.01, dynamic=0.01, leakage=0.001, area_ge=0.5)
        assert not _exceeds(delta, baseline, 0.01, 0.01)

    def test_total_power_violation(self, baseline):
        # N'' above N by 5% of total (delta = N - N'' strongly negative).
        delta = _delta(total=-0.05 * baseline.total_uw)
        assert _exceeds(delta, baseline, 0.01, 0.01)

    def test_component_violation_even_when_total_fits(self, baseline):
        """Paper II-C.2: each component is checked independently."""
        delta = _delta(total=0.0, leakage=-0.5 * baseline.leakage_uw)
        assert _exceeds(delta, baseline, 0.01, 0.01)

    def test_area_violation(self, baseline):
        delta = _delta(area_ge=-0.05 * baseline.area_ge)
        assert _exceeds(delta, baseline, 0.01, 0.01)

    def test_negative_differential_is_allowed_by_exceeds(self, baseline):
        # Being far *under* threshold is not an excess (padding handles it).
        delta = _delta(total=5.0, dynamic=4.0, leakage=1.0, area_ge=30.0)
        assert not _exceeds(delta, baseline, 0.01, 0.01)


class TestDummyPadding:
    def test_padding_closes_area_gap_without_busting_power(
        self, c432_circuit, library
    ):
        # Fabricate a deficit: strip a chunk of logic (dead-end gates).
        from repro.netlist import strip_dead_logic, tie_net_to_constant
        from repro.prob import rare_nodes

        baseline = analyze(c432_circuit, library)
        shrunk = c432_circuit.copy("shrunk")
        for net, p_one in rare_nodes(shrunk, 0.97)[:6]:
            if shrunk.has_net(net) and not shrunk.gate(net).is_constant:
                tie_net_to_constant(shrunk, net, 1 if p_one >= 0.5 else 0)
        strip_dead_logic(shrunk)
        config = InsertionConfig(padding_target_ge=2.0)
        report, delta, added = _pad_with_dummies(shrunk, baseline, library, config)
        assert added, "padding should have inserted something"
        assert not _exceeds(delta, baseline, config.rel_power_tolerance,
                            config.rel_area_tolerance)
        # The gap must have shrunk versus the unpadded circuit.
        unpadded = baseline.delta(analyze(c432_circuit.copy("ref"), library))
        assert delta.area_ge <= baseline.delta(report).area_ge + 1e-9

    def test_padding_noop_when_already_at_threshold(self, c432_circuit, library):
        baseline = analyze(c432_circuit, library)
        work = c432_circuit.copy("work")
        config = InsertionConfig(padding_target_ge=4.0)
        report, delta, added = _pad_with_dummies(work, baseline, library, config)
        assert added == []
        assert abs(delta.area_ge) < 1e-6


class TestRankVictims:
    """The one-pass bitset ranking equals one ``fanout_cone`` walk per net."""

    @pytest.mark.parametrize("build", [c17, c432_like, c3540_like])
    def test_matches_cone_walk(self, build):
        circuit = build()
        everything = len(circuit)
        assert rank_victims(circuit, everything) == reference_rank_victims(circuit, everything)
        assert rank_victims(circuit, 8) == reference_rank_victims(circuit, 8)

    def test_matches_cone_walk_through_a_dff_loop(self):
        circuit = c432_like()
        insert_counter_trojan(
            circuit, victim=circuit.internal_nets()[40],
            clock_source=circuit.internal_nets()[5], n_bits=3,
        )
        # A DFF whose output feeds logic that feeds the DFF back.
        a, b = circuit.internal_nets()[60], circuit.internal_nets()[70]
        circuit.add_gate("q", GateType.DFF, ("q_d", circuit.inputs[0]))
        circuit.add_gate("q_d", GateType.XOR, ("q", a))
        circuit.rewire_input(b, circuit.gate(b).inputs[0], "q_d")
        assert circuit.is_sequential
        everything = len(circuit)
        assert rank_victims(circuit, everything) == reference_rank_victims(circuit, everything)


class TestInsertionSearch:
    def test_failure_reports_attempts(self, c432_circuit, library):
        """With zero salvage budget every counter design must be skipped or
        rejected, and the attempt log must say why."""
        th = compute_thresholds(c432_circuit, library)
        # Pth high enough that nothing is salvaged -> no budget.
        result_salvage = salvage(
            th.circuit, th.pattern_sets, library, 0.99999, power_before=th.power
        )
        assert result_salvage.expendable_gates == 0
        outcome = insert_trojan_zero(
            result_salvage,
            th.circuit,
            th.pattern_sets,
            th.power,
            library,
            designs=[TrojanDesign("counter5", "counter", 5)],
        )
        assert not outcome.success
        assert outcome.attempts
        assert any("budget" in a.outcome or "exceeds" in a.outcome
                   for a in outcome.attempts)

    def test_session_vectors_affect_trigger_choice(self, c432_circuit, library):
        from repro.core.insertion import rank_trigger_sources

        short = rank_trigger_sources(
            c432_circuit, 0.95, 4, edges_to_fire=3, session_vectors=50
        )
        long = rank_trigger_sources(
            c432_circuit, 0.95, 4, edges_to_fire=3, session_vectors=5000
        )
        assert short and long
        # A longer defender session forces (weakly) rarer clock choices.
        from repro.prob import signal_probabilities

        probs = signal_probabilities(c432_circuit)

        def edge(net):
            p = probs[net]
            return p * (1 - p)

        assert edge(long[0]) <= edge(short[0]) + 1e-12


class TestReportFormatting:
    def test_failed_run_renders_dashes(self, c432_circuit, library):
        from repro.core import TableRow, TrojanZeroPipeline, format_row

        pipe = TrojanZeroPipeline.default()
        result = pipe.run(
            c432_circuit.copy(), p_threshold=0.99999, counter_bits=5
        )
        assert not result.success
        row = TableRow.from_result(result)
        line = format_row(row)
        assert "-" in line
        assert result.summary()  # must not raise on failure either

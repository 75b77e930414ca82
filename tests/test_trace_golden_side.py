"""The trace lab's shared golden side and its once-per-chip scoring.

The golden side of a trace experiment (stimuli, noise chain, calibrated
detectors, golden and additive scores, hypotheses, golden and additive
power) depends on N, the detector seed, ``n_chips``, ``additive_gates`` and
the :class:`TraceLabConfig`, not on Pth or N″, so
:func:`repro.traces.lab.trace_evasion_experiment` shares it per process.
These tests pin that sharing changes no payload and no diagnostic, that
every input able to reach the golden side separates memo entries, that
stored arrays are read-only, that the memo stays bounded under threads, and
that the detectors' cached statistics equal the plain formulas exactly.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.bench import c17
from repro.core.pipeline import _clear_phase_a
from repro.netlist import Circuit
from repro.power.library import CellLibrary
from repro.power.tech65 import TECH65_PARAMS, tech65_library
from repro.traces import (
    CorrTraceDetector,
    DomTraceDetector,
    TraceLabConfig,
    TvlaTraceDetector,
    leakage_assessment,
    trace_evasion_experiment,
    welch_t_statistic,
)
from repro.traces import lab
from repro.trojan import insert_counter_trojan
from tests.test_phase_a import _reversed_gate_order

SWEEP_PTHS = (0.9, 0.95, 0.975, 0.99)
#: A small acquisition, so one golden side costs milliseconds on c17.
SMALL = TraceLabConfig(n_sequences=6, n_vectors=9, n_repeats=2)
N_CHIPS = 8


@pytest.fixture(autouse=True)
def empty_memo():
    lab._clear_golden_sides()
    yield
    lab._clear_golden_sides()


def _infected(golden: Circuit) -> Circuit:
    infected = golden.copy(f"{golden.name}_tz")
    insert_counter_trojan(
        infected,
        victim=infected.outputs[0],
        clock_source=infected.internal_nets()[0],
        n_bits=2,
    )
    return infected


def _summary(report):
    """Everything a report carries except the wall time."""
    diagnostics = dict(report.trace_diagnostics)
    diagnostics.pop("wall_s")
    return (
        report.golden_rates,
        report.additive_rates,
        report.trojanzero_rates,
        report.additive_overhead_pct,
        report.trojanzero_overhead_pct,
        diagnostics,
    )


def _experiment(golden, library=None, **kwargs):
    kwargs = {"n_chips": N_CHIPS, "seed": 5, "config": SMALL, **kwargs}
    library = library or tech65_library()
    return trace_evasion_experiment(golden, _infected(golden), library, **kwargs)


class TestSharedEqualsComputed:
    def test_shuffled_sweep_matches_cold_cells(self):
        specs = [
            ExperimentSpec(
                circuit="c432", pth=pth, design="counter2", seed=1,
                detector="traces", mc_sessions=16,
            )
            for pth in SWEEP_PTHS
        ]
        order = np.random.default_rng(27).permutation(len(specs))
        shuffled = [specs[i] for i in order]

        def record(spec):
            rec = run_experiment(spec)
            traces = dict(rec.traces)
            traces.pop("wall_s")
            return rec.payload_dict(), traces

        _clear_phase_a()
        cold = {}
        for spec in shuffled:
            lab._clear_golden_sides()
            cold[spec] = record(spec)
            assert len(lab._golden_memo.values()) == 1

        lab._clear_golden_sides()
        warm = {spec: record(spec) for spec in shuffled}
        (side,) = lab._golden_memo.values()
        assert warm == cold
        # The one entry served every warm cell after the first.
        assert lab._golden_memo.values() == [side]

    def test_direct_calls_match_cold_calls(self):
        golden = c17()
        first = _summary(_experiment(golden))
        again = _summary(_experiment(golden))
        lab._clear_golden_sides()
        cold = _summary(_experiment(golden))
        assert first == again == cold


class TestKeySeparation:
    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 6},
            {"n_chips": N_CHIPS + 1},
            {"additive_gates": 8},
            {"config": TraceLabConfig(n_sequences=6, n_vectors=9, n_repeats=3)},
            {"library": CellLibrary(TECH65_PARAMS)},
        ],
        ids=["seed", "n_chips", "additive_gates", "config", "library"],
    )
    def test_every_input_separates_entries(self, change):
        golden = c17()
        base = _summary(_experiment(golden))
        changed = _summary(_experiment(golden, **change))
        assert len(lab._golden_memo.values()) == 2
        lab._clear_golden_sides()
        assert changed == _summary(_experiment(golden, **change))
        if "library" not in change:  # an equal library scores equally
            assert changed != base

    def test_gate_order_separates_entries(self):
        golden = c17()
        dup = _reversed_gate_order(golden)
        assert dup.structural_fingerprint() == golden.structural_fingerprint()
        assert dup.nets != golden.nets
        _experiment(golden)
        reordered = _summary(_experiment(dup))
        assert len(lab._golden_memo.values()) == 2
        lab._clear_golden_sides()
        assert reordered == _summary(_experiment(dup))

    def test_infected_circuit_does_not_reach_the_key(self):
        golden = c17()
        _experiment(golden)
        other = golden.copy(f"{golden.name}_tz")
        insert_counter_trojan(
            other, victim=other.outputs[1], clock_source=other.internal_nets()[1], n_bits=3
        )
        kwargs = {"n_chips": N_CHIPS, "seed": 5, "config": SMALL}
        shared = _summary(trace_evasion_experiment(golden, other, tech65_library(), **kwargs))
        assert len(lab._golden_memo.values()) == 1
        lab._clear_golden_sides()
        cold = _summary(trace_evasion_experiment(golden, other, tech65_library(), **kwargs))
        assert shared == cold


class TestStoredSide:
    def test_stored_arrays_are_read_only(self):
        _experiment(c17())
        (side,) = lab._golden_memo.values()
        arrays = [side.stimuli]
        for detector in side.detectors.values():
            arrays += [v for v in vars(detector).values() if isinstance(v, np.ndarray)]
        assert set(side.detectors) == {"tvla", "dom", "corr"}
        assert len(arrays) == 1 + 2 + 2 * 4
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 1

    def test_handed_out_diagnostics_are_copies(self):
        golden = c17()
        report = _experiment(golden)
        want = _summary(_experiment(golden))
        report.trace_diagnostics["hypothesis_nets"].clear()
        report.trace_diagnostics["nets_watched"]["golden"] = -1
        report.trace_diagnostics["mean_cycle_energy_fj"].clear()
        report.golden_rates.clear()
        assert _summary(_experiment(golden)) == want


class TestBoundedSize:
    def test_least_recently_used_entry_is_evicted(self):
        golden = c17()
        seeds = list(range(lab.GOLDEN_SIDE_CAPACITY + 1))
        sides = {}
        for seed in seeds[:-1]:
            _experiment(golden, seed=seed)
            sides[seed] = lab._golden_memo.values()[-1]
        _experiment(golden, seed=seeds[0])  # touch: seeds[1] is now the LRU entry
        _experiment(golden, seed=seeds[-1])
        stored = lab._golden_memo.values()
        assert len(stored) == lab.GOLDEN_SIDE_CAPACITY
        assert sides[seeds[1]] not in stored
        assert stored[:-1] == [sides[s] for s in seeds[2:-1]] + [sides[seeds[0]]]

    def test_concurrent_callers_stay_consistent(self):
        golden = c17()
        seeds = list(range(lab.GOLDEN_SIDE_CAPACITY + 2))
        want = {seed: _summary(_experiment(golden, seed=seed)) for seed in seeds}
        lab._clear_golden_sides()
        errors = []

        def worker(offset):
            try:
                for step in range(12):
                    seed = seeds[(offset + step) % len(seeds)]
                    assert _summary(_experiment(golden, seed=seed)) == want[seed]
            except Exception as exc:  # noqa: BLE001 — reported by the main thread
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(lab._golden_memo.values()) == lab.GOLDEN_SIDE_CAPACITY


def _chips(rng, n, shift=0.0, repeats=4, samples=64):
    return [rng.normal(1.0 + shift, 0.05, size=(repeats, samples)) for _ in range(n)]


class TestDetectorDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_tvla_statistic_equals_welch_against_the_pool(self, seed):
        rng = np.random.default_rng(seed)
        golden = _chips(rng, 10)
        detector = TvlaTraceDetector()
        detector.calibrate(golden)
        pool = np.concatenate(golden, axis=0)
        for chip in _chips(rng, 6) + _chips(rng, 6, shift=0.02):
            want = float(np.max(np.abs(welch_t_statistic(pool, chip))))
            assert detector.statistic(chip) == want
            assert detector.assessment(chip) == leakage_assessment(
                pool, chip, detector.t_threshold
            )

    @pytest.mark.parametrize("cls", [TvlaTraceDetector, DomTraceDetector, CorrTraceDetector])
    @pytest.mark.parametrize("seed", range(3))
    def test_detection_rate_equals_the_flags_mean(self, cls, seed):
        rng = np.random.default_rng(seed)
        kwargs = {}
        if cls is not TvlaTraceDetector:
            kwargs["activity"] = (rng.random((3, 64)) < 0.2).astype(np.float64)
        detector = cls(**kwargs)
        detector.calibrate(_chips(rng, 10))
        chips = _chips(rng, 7) + _chips(rng, 7, shift=0.03)
        stats = detector.statistics(chips)
        assert stats.tolist() == [detector.statistic(c) for c in chips]
        assert detector.detection_rate(chips) == float(
            np.mean([detector.flags(c) for c in chips])
        )

    def test_welch_rejects_single_trace_sets(self):
        with pytest.raises(ValueError, match="at least 2"):
            welch_t_statistic(np.ones((1, 4)), np.ones((3, 4)))
        with pytest.raises(ValueError, match="at least 2"):
            welch_t_statistic(np.ones((3, 4)), np.ones((1, 4)))

    def test_calibration_leaves_the_callers_activity_writable(self):
        activity = np.zeros((2, 64))
        activity[:, ::5] = 1.0
        detector = DomTraceDetector(activity=activity)
        detector.calibrate(_chips(np.random.default_rng(0), 8))
        assert activity.flags.writeable
        assert not detector.activity.flags.writeable

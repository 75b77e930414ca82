"""The per-process Phase A memo (:func:`repro.core.pipeline.phase_a`).

Phase A — verify N, defender ATPG, synthesis, thresholds — does not depend
on Pth, so the cells of a Pth sweep of one (circuit, seed) share it.  These
tests pin that sharing changes no payload, that everything able to reach a
Phase A report separates memo entries, that nothing a cell receives can
mutate the stored report, that a stored report pins none of ATPG's fault
simulation caches, and that the memo stays bounded.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import ExperimentSpec, execute_experiment
from repro.bench import c17, c432_like
from repro.core import DefenderModel
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import PHASE_A_CAPACITY, _clear_phase_a, phase_a
from repro.netlist import Circuit, GateType
from repro.power.library import CellLibrary
from repro.power.tech65 import TECH65_PARAMS, tech65_library
from repro.sim.compiled import COMPILE_STATS, compile_circuit

SWEEP_PTHS = (0.9, 0.95, 0.975, 0.99)
SWEEP_SEEDS = (0, 1)


@pytest.fixture(autouse=True)
def empty_memo():
    _clear_phase_a()
    yield
    _clear_phase_a()


def _stored():
    """The memo's stored reports, oldest first."""
    return [report for report, _library in pipeline_module._phase_a_memo.values()]


def _run(spec):
    record = execute_experiment(spec).record
    text = json.dumps(record.payload_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), record.runtime["phase_a"]


def _reversed_gate_order(circuit: Circuit) -> Circuit:
    """The same netlist with its logic gates inserted in reverse order."""
    dup = Circuit(circuit.name)
    for name in circuit.inputs:
        dup.add_input(name)
    for gate in reversed(list(circuit.logic_gates())):
        dup.add_gate(gate.name, gate.gate_type, gate.inputs)
    for name in circuit.outputs:
        dup.set_output(name)
    return dup


class TestSharedEqualsComputed:
    def test_shuffled_sweep_digests_match_cold_runs(self):
        specs = [
            ExperimentSpec(
                circuit="c432", pth=pth, design="counter2", seed=seed, mc_sessions=16
            )
            for seed in SWEEP_SEEDS
            for pth in SWEEP_PTHS
        ]
        order = np.random.default_rng(21).permutation(len(specs))
        shuffled = [specs[i] for i in order]

        cold = {}
        for spec in shuffled:
            _clear_phase_a()
            cold[spec], state = _run(spec)
            assert state == "computed"

        _clear_phase_a()
        warm = {}
        seen_seeds = set()
        for spec in shuffled:
            warm[spec], state = _run(spec)
            assert state == ("shared" if spec.seed in seen_seeds else "computed")
            seen_seeds.add(spec.seed)
        assert warm == cold

    def test_miss_calls_the_module_global_compute_thresholds(self, monkeypatch):
        calls = []
        real = pipeline_module.compute_thresholds

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "compute_thresholds", counting)
        library, defender = tech65_library(), DefenderModel()
        for _ in range(3):
            phase_a(c17(), library, defender)
        assert calls == ["c17"]


class TestKeySeparation:
    def _assert_own_entry(self, circuit, library, defender):
        _, shared = phase_a(circuit, library, defender)
        assert not shared
        _, shared = phase_a(circuit, library, defender)
        assert shared

    def test_everything_that_reaches_a_report_separates_entries(self):
        library, defender = tech65_library(), DefenderModel()
        base = c17()
        self._assert_own_entry(base, library, defender)
        assert phase_a(c17(), library, defender)[1], "an equal fresh circuit shares"

        reordered = _reversed_gate_order(base)
        assert reordered.structural_fingerprint() == base.structural_fingerprint()
        assert reordered.nets != base.nets
        variants = [
            (reordered, library, defender),
            (base.copy(name="c17_renamed"), library, defender),
            (base, library, replace(defender, atpg=replace(defender.atpg, backtrack_limit=5))),
            (base, CellLibrary(TECH65_PARAMS), defender),
        ]
        for circuit, lib, model in variants:
            self._assert_own_entry(circuit, lib, model)

    def test_defender_model_is_frozen_and_hashable(self):
        defender = DefenderModel()
        assert hash(defender) == hash(DefenderModel())
        with pytest.raises(AttributeError):
            defender.n_random_vectors = 0


class TestNothingSharedIsMutable:
    def test_cached_pattern_arrays_are_read_only(self):
        report, _ = phase_a(c17(), tech65_library(), DefenderModel())
        (stored,) = _stored()
        arrays = [stored.test_set.patterns, *stored.pattern_sets, *stored.bespoke_sets]
        arrays += [*report.pattern_sets, *report.bespoke_sets]
        assert len(arrays) >= 4
        for patterns in arrays:
            assert not patterns.flags.writeable
            with pytest.raises(ValueError):
                patterns[0, 0] = 1 - patterns[0, 0]

    def test_handed_out_report_is_a_copy(self):
        library, defender = tech65_library(), DefenderModel()
        first, _ = phase_a(c17(), library, defender)
        (stored,) = _stored()
        fingerprint, nets = stored.circuit.structural_fingerprint(), stored.circuit.nets
        assert first.circuit is not stored.circuit
        assert first.pattern_sets is not stored.pattern_sets
        assert first.bespoke_sets is not stored.bespoke_sets

        first.circuit.add_gate("extra", GateType.AND, first.circuit.inputs[:2])
        first.pattern_sets.clear()
        first.bespoke_sets.clear()
        second, shared = phase_a(c17(), library, defender)
        assert shared
        assert stored.circuit.structural_fingerprint() == fingerprint
        assert second.circuit.nets == nets and "extra" not in second.circuit
        assert len(second.pattern_sets) == len(stored.pattern_sets) > 0
        assert len(second.bespoke_sets) == len(stored.bespoke_sets) > 0

    @pytest.mark.parametrize("detector", ["paper", "traces"])
    def test_detector_cells_leave_the_entry_unchanged(self, detector):
        base = ExperimentSpec(
            circuit="c432", pth=0.975, design="counter2", seed=3, detector_chips=8
        )
        _run(base)
        (stored,) = _stored()
        fingerprint, nets = stored.circuit.structural_fingerprint(), stored.circuit.nets
        n_vectors = stored.n_test_vectors
        _, state = _run(base.with_(detector=detector))
        assert state == "shared"
        (after,) = _stored()
        assert after is stored
        assert stored.circuit.structural_fingerprint() == fingerprint
        assert stored.circuit.nets == nets
        assert stored.n_test_vectors == n_vectors
        # And it still is what a fresh run synthesizes.
        _clear_phase_a()
        _run(base)
        (fresh,) = _stored()
        assert fresh.circuit.structural_fingerprint() == fingerprint
        assert fresh.circuit.nets == nets


class TestStoredEntryIsLean:
    def test_stored_entry_pins_no_cone_cache(self):
        library, defender = tech65_library(), DefenderModel()
        first, shared = phase_a(c432_like(), library, defender)
        assert not shared
        (stored,) = _stored()
        # The computing call hands out ATPG's compiled form, cone caches and all.
        computed = compile_circuit(first.circuit)
        assert computed._cone_rows_cache and computed._readers is not None
        lean = stored.circuit._compiled_cache
        assert lean is not None and lean is not computed
        assert lean.schedule is computed.schedule
        assert not lean._cone_rows_cache and lean._readers is None
        assert not lean._plan_cache
        assert stored.circuit._derived_from is None
        # Sharing calls still start from the stored compiled schedule.
        before = COMPILE_STATS.snapshot()
        second, shared = phase_a(c432_like(), library, defender)
        assert shared
        assert compile_circuit(second.circuit) is lean
        assert COMPILE_STATS.delta_since(before)["full_compiles"] == 0


class TestBoundedSize:
    def test_least_recently_used_entry_is_evicted(self):
        library, defender = tech65_library(), DefenderModel()
        base = c17()
        names = [f"c17_{i}" for i in range(PHASE_A_CAPACITY + 1)]
        for name in names[:PHASE_A_CAPACITY]:
            assert not phase_a(base.copy(name=name), library, defender)[1]
        # Touch the oldest entry, so the second-oldest is the LRU one.
        assert phase_a(base.copy(name=names[0]), library, defender)[1]
        assert not phase_a(base.copy(name=names[-1]), library, defender)[1]
        assert len(_stored()) == PHASE_A_CAPACITY
        assert [r.circuit.name for r in _stored()] == names[2:-1] + names[:1] + names[-1:]
        assert not phase_a(base.copy(name=names[1]), library, defender)[1]

    def test_concurrent_callers_keep_the_memo_consistent(self):
        library, defender = tech65_library(), DefenderModel()
        base = c17()
        names = [f"c17_{i}" for i in range(PHASE_A_CAPACITY + 2)]
        errors = []

        def worker(offset):
            try:
                for step in range(40):
                    name = names[(offset + step) % len(names)]
                    report, _ = phase_a(base.copy(name=name), library, defender)
                    assert report.circuit.name == name
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
        assert len(_stored()) == PHASE_A_CAPACITY
        assert len({r.circuit.name for r in _stored()}) == PHASE_A_CAPACITY

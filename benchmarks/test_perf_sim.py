"""Simulation-core perf harness: records throughput into ``BENCH_perf.json``.

Measures the compiled levelized engine against the retained per-gate
reference implementations on ISCAS-scale circuits:

* **bitsim** — one bit-parallel pass over ``N_PATTERNS`` random vectors;
  throughput is reported in pattern-gate evaluations per second.
* **faultsim** — ``FaultSimulator.run`` (first detection per fault, read off
  the detection masks) of a sampled stuck-at fault list against the same
  vectors, vs. the test-only oracle sweeping every block
  (``drop_detected=False``).
* **seqsim** — Monte-Carlo trigger sessions over a counter-Trojan-infected
  c3540-class circuit: compiled sequential schedule vs. the per-gate
  reference dict engine, bit-identity checked in the same run; and
  (``seqsim.trigger_mc``) ``monte_carlo_pft`` on the infected c432, c880
  and c3540 Table I cells, split stepping vs. the whole-circuit stepping
  oracle.
* **pipeline** — one end-to-end TrojanZero flow (thresholds → salvage →
  insertion → Pft Monte-Carlo) with the salvage compile-cache counters
  (salvage walks N's compiled form, so it compiles nothing),
  and (``pipeline.padding``) c499's dummy/filler padding costed by an
  incremental :class:`~repro.power.analysis.PowerModel` vs. a fresh
  ``analyze`` per batch, and (``pipeline.synthesis``) c3540's Phase A
  synthesis cleanup in one forward pass vs. the four per-gate passes
  iterated to a fixed point, and (``pipeline.sweep``) a c432 Pth sweep of
  one seed with Phase A computed per cell vs. shared through the
  per-process memo.

Results (before/after wall time, throughput, speedup) are merged into
``BENCH_perf.json`` at the repo root so the perf trajectory is tracked in
version control.  The assertions below are deliberately *generous* floors —
they exist to fail loudly on order-of-magnitude regressions (e.g. the engine
silently falling back to a per-gate path), not to pin exact machine speeds.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.atpg import full_fault_list
from repro.atpg.faultsim import FaultSimulator
from repro.bench import c17, c499_like, c880_like, c1908_like, c3540_like
from repro.bench.iscas_extra import c6288_like
from repro.core.insertion import _exceeds, _pad_with_dummies
from repro.api import ExperimentSpec, execute_experiment
from repro.core.pipeline import TrojanZeroPipeline, _clear_phase_a
from repro.power import analyze, optimize_netlist
from repro.sim import compile_circuit
from repro.sim.bitsim import BitSimulator, pack_patterns, unpack_patterns
from repro.sim.seqsim import SequentialSimulator
from repro.trojan import insert_counter_trojan
from repro.trojan import trigger as trigger_module
from repro.trojan.library import insert_dummy_gates, insert_filler_cells
from repro.trojan.trigger import monte_carlo_pft
from tests.oracles import (
    ReferenceSequentialSimulator,
    WholeCircuitSequentialSimulator,
    netlist_structure,
    reference_fault_sim,
    reference_optimize_netlist,
    reference_run_packed,
)

from conftest import BENCH_PERF_PATH, run_benchmark_cached, update_perf_report


N_PATTERNS = 4096
FAULT_SAMPLE = 96
BITSIM_REPEATS = 3

CIRCUITS = {
    "c17": c17,
    "c499": c499_like,
    "c880": c880_like,
    "c1908": c1908_like,
    "c3540": c3540_like,
    "c6288": c6288_like,
}

#: Loud-regression floors (well below the typically observed speedups).
MIN_CIRCUITS_BITSIM_2X = 3
MIN_CIRCUITS_FAULTSIM_8X = 3


def _best_of(fn, repeats: int) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _bench_circuit(name, build, rng):
    circuit = build()
    n_gates = circuit.num_logic_gates
    patterns = (rng.random((N_PATTERNS, len(circuit.inputs))) < 0.5).astype(np.uint8)

    # --- bit-parallel simulation -------------------------------------
    sim = BitSimulator(circuit)
    sim.run(patterns)  # warm the compiled schedule
    t_after = _best_of(lambda: sim.run(patterns), BITSIM_REPEATS)

    # The reference pass must pay the same unpacked-in / unpacked-out
    # conversion costs as ``sim.run`` or tiny circuits (c17) report a
    # phantom regression that is really just asymmetric packing overhead.
    def reference_pass():
        packed = pack_patterns(patterns)
        packed_inputs = {pi: packed[i] for i, pi in enumerate(circuit.inputs)}
        values = reference_run_packed(circuit, packed_inputs)
        out = np.stack([values[o] for o in circuit.outputs])
        unpack_patterns(out, N_PATTERNS)

    t_before = _best_of(reference_pass, BITSIM_REPEATS)

    # --- fault simulation (coverage workload) ------------------------
    faults = full_fault_list(circuit)
    if len(faults) > FAULT_SAMPLE:
        chosen = rng.choice(len(faults), FAULT_SAMPLE, replace=False)
        faults = [faults[i] for i in chosen]
    fsim = FaultSimulator(circuit)
    fsim.run(patterns, faults)  # warm the cone row lists
    tf_after = _timed(lambda: fsim.run(patterns, faults))
    tf_before = _timed(
        lambda: reference_fault_sim(circuit, patterns, faults, drop_detected=False)
    )

    evals = N_PATTERNS * n_gates
    return {
        "gates": n_gates,
        "n_patterns": N_PATTERNS,
        "bitsim": {
            "before_s": t_before,
            "after_s": t_after,
            "before_pattern_gates_per_s": evals / t_before,
            "after_pattern_gates_per_s": evals / t_after,
            "speedup": t_before / t_after,
        },
        "faultsim": {
            "n_faults": len(faults),
            "before_s": tf_before,
            "after_s": tf_after,
            "before_fault_patterns_per_s": len(faults) * N_PATTERNS / tf_before,
            "after_fault_patterns_per_s": len(faults) * N_PATTERNS / tf_after,
            "speedup": tf_before / tf_after,
        },
    }


def test_compiled_engine_throughput():
    rng = np.random.default_rng(2026)
    results = {name: _bench_circuit(name, build, rng) for name, build in CIRCUITS.items()}
    update_perf_report("workload", {
        "n_patterns": N_PATTERNS,
        "fault_sample": FAULT_SAMPLE,
        "faultsim_mode": "first detect from detection masks "
        "(oracle: drop_detected=False)",
        "units": "pattern-gate evaluations per second / fault-patterns per second",
    })
    update_perf_report("circuits", results)

    # Compiled dispatch must never lose to the per-gate reference — on ANY
    # circuit, including tiny c17, now that both sides pay the same packing
    # cost.  Floor at 0.9 to absorb timer jitter on microsecond-scale runs.
    bitsim_slow = [n for n, r in results.items() if r["bitsim"]["speedup"] < 0.9]
    assert not bitsim_slow, (
        f"compiled bitsim lost to the reference interpreter on {bitsim_slow} "
        f"(see {BENCH_PERF_PATH})"
    )

    iscas = {n: r for n, r in results.items() if n != "c17"}
    bitsim_fast = [n for n, r in iscas.items() if r["bitsim"]["speedup"] >= 2.0]
    faultsim_fast = [n for n, r in iscas.items() if r["faultsim"]["speedup"] >= 8.0]
    assert len(bitsim_fast) >= MIN_CIRCUITS_BITSIM_2X, (
        f"bit-parallel speedup regressed: only {bitsim_fast} of {list(iscas)} "
        f"reached 2x (see {BENCH_PERF_PATH})"
    )
    assert len(faultsim_fast) >= MIN_CIRCUITS_FAULTSIM_8X, (
        f"fault-sim speedup regressed: only {faultsim_fast} of {list(iscas)} "
        f"reached 8x (see {BENCH_PERF_PATH})"
    )


# ---------------------------------------------------------------------------
# sequential Monte-Carlo (counter-Trojan trigger sessions)
# ---------------------------------------------------------------------------
SEQ_SESSIONS = 256
SEQ_VECTORS = 48
SEQ_MIN_SPEEDUP = 3.0  # loud-regression floor; typically observed >= 5x


def test_seqsim_monte_carlo_throughput():
    """Compiled sequential engine vs. reference dict engine, N'' Monte-Carlo."""
    circuit = c3540_like()
    instance = insert_counter_trojan(
        circuit,
        victim=circuit.outputs[0],
        clock_source=circuit.internal_nets()[50],
        n_bits=3,
    )
    rng = np.random.default_rng(2026)
    sequences = (
        rng.random((SEQ_SESSIONS, SEQ_VECTORS, len(circuit.inputs))) < 0.5
    ).astype(np.uint8)
    watch = [instance.trigger_net]

    sim = SequentialSimulator(circuit)
    sim.run_sequences_nets(sequences, watch)  # warm the compiled schedule
    t_after = _best_of(lambda: sim.run_sequences_nets(sequences, watch), 3)
    got = sim.run_sequences_nets(sequences, watch)

    ref = ReferenceSequentialSimulator(circuit)
    t_before = _timed(lambda: ref.run_sequences_nets(sequences, watch))
    want = ref.run_sequences_nets(sequences, watch)

    assert (got == want).all(), "compiled sequential engine diverged from reference"

    vector_steps = SEQ_SESSIONS * SEQ_VECTORS
    speedup = t_before / t_after
    update_perf_report("seqsim", {
        "circuit": "c3540 + 3-bit counter Trojan",
        "gates": circuit.num_logic_gates,
        "n_sessions": SEQ_SESSIONS,
        "n_vectors": SEQ_VECTORS,
        "before_s": t_before,
        "after_s": t_after,
        "before_vector_steps_per_s": vector_steps / t_before,
        "after_vector_steps_per_s": vector_steps / t_after,
        "speedup": speedup,
    })
    assert speedup >= SEQ_MIN_SPEEDUP, (
        f"sequential Monte-Carlo speedup regressed: {speedup:.1f}x < "
        f"{SEQ_MIN_SPEEDUP}x (see {BENCH_PERF_PATH})"
    )


TRIGGER_MC_CELLS = ("c432", "c880", "c3540")
TRIGGER_MC_SESSIONS = 64
TRIGGER_MC_MIN_SPEEDUP = 2.0  # loud-regression floor; typically observed ~5x


def test_trigger_mc_split_stepping(pipeline, monkeypatch):
    """Monte-Carlo Pft on infected Table I cells: split vs. whole-circuit."""
    cells = {}
    for name in TRIGGER_MC_CELLS:
        result = run_benchmark_cached(pipeline, name)
        assert result.success, f"{name}: no Trojan inserted"
        infected, instance = result.insertion.infected, result.insertion.instance
        n_vectors = result.thresholds.n_test_vectors

        def mc():
            return monte_carlo_pft(
                infected, instance, n_vectors,
                n_sessions=TRIGGER_MC_SESSIONS, rng=np.random.default_rng(2026),
            )

        mc()  # warm the compiled schedule and the trigger's plan
        t_split = _best_of(mc, 3)
        pft = mc()
        monkeypatch.setattr(
            trigger_module, "SequentialSimulator", WholeCircuitSequentialSimulator
        )
        t_whole = _timed(mc)
        assert mc() == pft, f"{name}: Pft differs between the engines"
        monkeypatch.undo()

        # The session block monte_carlo_pft draws first, trigger trace per step.
        sequences = (
            np.random.default_rng(2026).random(
                (TRIGGER_MC_SESSIONS, n_vectors, len(infected.inputs))
            ) < 0.5
        ).astype(np.uint8)
        watch = [instance.trigger_net]
        got = SequentialSimulator(infected).run_sequences_nets(sequences, watch)
        want = WholeCircuitSequentialSimulator(infected).run_sequences_nets(sequences, watch)
        assert (got == want).all(), f"{name}: split stepping diverged"

        compiled = compile_circuit(infected)
        plan = compiled.sequential_plan((compiled.index[instance.trigger_net],))
        cells[name] = {
            "counter_bits": len(instance.state_nets),
            "n_vectors": n_vectors,
            "pft_monte_carlo": pft,
            "steps_fired": int(got[:, :, 0].any(axis=0).sum()),
            "rows_total": compiled.n_nets,
            "rows_wide": sum(group.out_idx.size for group in plan.free),
            "rows_stepped": sum(group.out_idx.size for group in plan.state),
            "whole_s": t_whole,
            "split_s": t_split,
            "speedup": t_whole / t_split,
        }

    t_whole = sum(cell["whole_s"] for cell in cells.values())
    t_split = sum(cell["split_s"] for cell in cells.values())
    speedup = t_whole / t_split
    update_perf_report("seqsim.trigger_mc", {
        "workload": f"monte_carlo_pft, {TRIGGER_MC_SESSIONS} sessions, "
        "infected Table I cells",
        "engine": "split stepping vs. whole-circuit stepping",
        "cells": cells,
        "whole_s": t_whole,
        "split_s": t_split,
        "speedup": speedup,
    })
    assert speedup >= TRIGGER_MC_MIN_SPEEDUP, (
        f"trigger Monte-Carlo split-stepping speedup regressed: {speedup:.1f}x "
        f"< {TRIGGER_MC_MIN_SPEEDUP}x (see {BENCH_PERF_PATH})"
    )


# ---------------------------------------------------------------------------
# end-to-end pipeline (thresholds -> salvage -> insertion -> Pft MC)
# ---------------------------------------------------------------------------
def test_pipeline_end_to_end_timing():
    """One full TrojanZero flow; records wall time + salvage compile caching."""
    circuit = c880_like()
    pipeline = TrojanZeroPipeline.default()
    start = time.perf_counter()
    result = pipeline.run(
        circuit,
        p_threshold=0.85,
        max_candidates=24,
        monte_carlo_sessions=64,
    )
    elapsed = time.perf_counter() - start

    stats = result.salvage.compile_stats
    trials = len(result.salvage.removals)
    update_perf_report("pipeline.end_to_end", {
        "circuit": "c880",
        "gates": circuit.num_logic_gates,
        "max_candidates": 24,
        "monte_carlo_sessions": 64,
        "wall_s": elapsed,
        "salvage_trials": trials,
        "salvage_compile_stats": stats,
    })
    # Salvage's trials are stuck-at cone walks on the compiled form Phase A
    # left on N: no trial, accepted or not, may compile anything.
    assert stats["full_compiles"] == 0 and stats["patched_compiles"] == 0, (
        f"salvage compiled over {trials} trials (stats: {stats}; "
        f"see {BENCH_PERF_PATH})"
    )


# ---------------------------------------------------------------------------
# dummy/filler padding (Algorithm 2, Sec. IV.4): incremental PowerModel
# ---------------------------------------------------------------------------
PADDING_MIN_SPEEDUP = 5.0  # loud-regression floor


def _pad_with_fresh_analyze(infected, thresholds, library, config, max_dummies=512):
    """The padding loop re-characterizing the whole circuit per batch."""
    added = []
    report = analyze(infected, library)
    delta = thresholds.delta(report)
    use_filler = False
    while len(added) < max_dummies and delta.area_ge > config.padding_target_ge:
        if use_filler or delta.total_uw <= 0 or delta.dynamic_uw <= 0:
            use_filler = True
            batch = insert_filler_cells(infected, 4, prefix=f"fill{len(added)}_")
        else:
            batch = insert_dummy_gates(infected, 1, prefix=f"dummy{len(added)}_")
        trial_report = analyze(infected, library)
        trial_delta = thresholds.delta(trial_report)
        if _exceeds(trial_delta, thresholds, config.rel_power_tolerance,
                    config.rel_area_tolerance):
            for name in reversed(batch):
                infected.remove_gate(name)
            if use_filler:
                break
            use_filler = True
            continue
        added.extend(batch)
        report, delta = trial_report, trial_delta
    return report, delta, added


def test_padding_incremental():
    """c499 padding: PowerModel updates vs. a fresh ``analyze`` per batch."""
    pipeline = TrojanZeroPipeline.default()
    result = pipeline.run(c499_like(), p_threshold=0.993, counter_bits=3, seed=1)
    insertion = result.insertion
    assert insertion.success and insertion.dummy_gates
    # The infected circuit as it stood before padding.
    unpadded = insertion.infected.copy()
    unpadded.remove_gates(insertion.dummy_gates)
    thresholds = result.power_free
    config = pipeline.insertion_config

    def timed_padding(pad):
        circuit = unpadded.copy()
        start = time.perf_counter()
        outcome = pad(circuit, thresholds, pipeline.library, config)
        return time.perf_counter() - start, outcome

    t_before, want = timed_padding(_pad_with_fresh_analyze)
    t_after, got = timed_padding(_pad_with_dummies)
    assert got == want, "incremental padding diverged from fresh analyze"
    assert got[2] == insertion.dummy_gates

    speedup = t_before / t_after
    update_perf_report("pipeline.padding", {
        "circuit": "c499 + 3-bit counter Trojan (seed 1)",
        "gates_added": len(got[2]),
        "before_s": t_before,
        "after_s": t_after,
        "speedup": speedup,
    })
    assert speedup >= PADDING_MIN_SPEEDUP, (
        f"incremental padding speedup regressed: {speedup:.1f}x < "
        f"{PADDING_MIN_SPEEDUP}x (see {BENCH_PERF_PATH})"
    )


SYNTHESIS_MIN_SPEEDUP = 10.0  # loud-regression floor


def test_optimize_netlist_one_pass():
    """c3540 synthesis cleanup: one forward pass vs. the per-gate passes."""
    circuit = c3540_like()
    circuit.topological_order()  # both sides start from a warm order cache
    t_before = _best_of(lambda: reference_optimize_netlist(circuit), 3)
    t_after = _best_of(lambda: optimize_netlist(circuit), 5)
    optimized = optimize_netlist(circuit)
    assert netlist_structure(optimized) == netlist_structure(reference_optimize_netlist(circuit))

    speedup = t_before / t_after
    update_perf_report("pipeline.synthesis", {
        "circuit": "c3540",
        "gates_before": circuit.num_logic_gates,
        "gates_after": optimized.num_logic_gates,
        "before_s": t_before,
        "after_s": t_after,
        "speedup": speedup,
    })
    assert speedup >= SYNTHESIS_MIN_SPEEDUP, (
        f"one-pass synthesis cleanup speedup regressed: {speedup:.1f}x < "
        f"{SYNTHESIS_MIN_SPEEDUP}x (see {BENCH_PERF_PATH})"
    )


# ---------------------------------------------------------------------------
# shared Phase A: a Pth sweep of one (circuit, seed)
# ---------------------------------------------------------------------------
SWEEP_PTHS = (0.90, 0.93, 0.95, 0.975, 0.99)
SWEEP_MIN_SPEEDUP = 1.15  # loud-regression floor


def _sweep(specs, cold: bool):
    """Run ``specs`` in order; ``cold`` empties the Phase A memo per cell."""
    _clear_phase_a()
    payloads, states = [], []
    start = time.perf_counter()
    for spec in specs:
        if cold:
            _clear_phase_a()
        record = execute_experiment(spec).record
        payloads.append(json.dumps(record.payload_dict(), sort_keys=True))
        states.append(record.runtime["phase_a"])
    return time.perf_counter() - start, payloads, states


def test_phase_a_shared_sweep():
    """c432 Pth sweep at one seed: Phase A per cell vs. once per sweep."""
    specs = [
        ExperimentSpec(circuit="c432", pth=pth, design="counter2", seed=1, mc_sessions=64)
        for pth in SWEEP_PTHS
    ]
    _sweep(specs[:1], cold=True)  # warm imports, library cells and compile caches
    t_cold, want, cold_states = _sweep(specs, cold=True)
    t_warm, got, warm_states = _sweep(specs, cold=False)
    _clear_phase_a()
    assert got == want, "a shared Phase A changed a payload"
    assert cold_states == ["computed"] * len(specs)
    assert warm_states == ["computed"] + ["shared"] * (len(specs) - 1)

    speedup = t_cold / t_warm
    update_perf_report("pipeline.sweep", {
        "workload": f"c432 counter2, seed 1, {len(specs)} Pth cells, 64 MC sessions",
        "pths": list(SWEEP_PTHS),
        "cold_s": t_cold,
        "shared_s": t_warm,
        "cold_cell_s": t_cold / len(specs),
        "shared_cell_s": t_warm / len(specs),
        "speedup": speedup,
    })
    assert speedup >= SWEEP_MIN_SPEEDUP, (
        f"shared Phase A sweep speedup regressed: {speedup:.2f}x < "
        f"{SWEEP_MIN_SPEEDUP}x (see {BENCH_PERF_PATH})"
    )

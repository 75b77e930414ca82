"""Trace-lab perf harness: records throughput into ``BENCH_perf.json``.

Measures the side-channel trace subsystem on a c3540-scale *sequential*
(counter-Trojan-infected) circuit:

* **generation** — toggle-tensor extraction over all nets via the compiled
  sequential engine plus the energy-weighting matmul; throughput in watched
  net-cycles per second.  The floor exists to fail loudly if the hot path
  ever regresses to per-net Python loops.
* **population** — per-chip measurement (weight draw + matmul + noise
  chain), chips per second.
* **ripple** — the cone-restricted ripple re-settle of
  ``CompiledCircuit.step_sequential`` against a forced full re-settle on a
  worst-case deep-counter workload (counter clocked from a PI, edges every
  other vector).

Results merge into ``BENCH_perf.json`` under the ``traces`` section; the
assertions are deliberately generous floors, not machine-speed pins.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import c3540_like
from repro.detect import VariationModel
from repro.power import tech65_library
from repro.sim import compile_circuit
from repro.sim.seqsim import SequentialSimulator
from repro.traces import GaussianNoise, NoiseChain, Quantization, TraceGenerator
from repro.traces.lab import TraceLabConfig, trace_population
from repro.trojan import insert_counter_trojan

from conftest import BENCH_PERF_PATH, update_perf_report


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


N_SEQUENCES = 128
N_VECTORS = 48
N_CHIPS = 16

#: Loud-regression floors (typically observed well above these).
MIN_NET_CYCLES_PER_S = 2e6
MIN_CHIPS_PER_S = 4.0
MIN_RIPPLE_SPEEDUP = 1.3


def test_trace_lab_throughput():
    library = tech65_library()
    circuit = c3540_like()
    insert_counter_trojan(
        circuit,
        victim=circuit.outputs[0],
        clock_source=circuit.internal_nets()[50],
        n_bits=5,
    )
    rng = np.random.default_rng(2026)
    sequences = (
        rng.random((N_SEQUENCES, N_VECTORS, len(circuit.inputs))) < 0.5
    ).astype(np.uint8)

    generator = TraceGenerator(circuit, library)
    generator.toggles(sequences[:2])  # warm the compiled schedule
    t_toggles, toggles = _timed(lambda: generator.toggles(sequences))
    t_weight, traces = _timed(lambda: generator.traces_from_toggles(toggles))
    n_nets = len(generator.nets)
    net_cycles = N_SEQUENCES * (N_VECTORS - 1) * n_nets
    gen_rate = net_cycles / (t_toggles + t_weight)

    config = TraceLabConfig(n_sequences=N_SEQUENCES, n_vectors=N_VECTORS, n_repeats=4)
    noise = NoiseChain(
        (GaussianNoise(sigma_rel=0.01), Quantization(bits=12, full_scale_fj=float(traces.max()) * 1.5))
    )
    t_chips, chips = _timed(
        lambda: trace_population(
            generator, toggles, N_CHIPS, config, noise, np.random.default_rng(7)
        )
    )
    chips_per_s = N_CHIPS / t_chips

    # Cone-restricted ripple re-settle vs. forced full re-settle, worst case:
    # a 5-bit counter clocked straight from a PI pumped every other vector.
    deep = c3540_like()
    insert_counter_trojan(
        deep, victim=deep.outputs[0], clock_source=deep.inputs[0], n_bits=5
    )
    pump = (rng.random((64, 96, len(deep.inputs))) < 0.5).astype(np.uint8)
    pump[:, :, 0] = np.arange(96)[np.newaxis, :] % 2
    sim = SequentialSimulator(deep)
    watch = [deep.outputs[0]]
    sim.run_sequences_nets(pump, watch)  # warm compile + fire cache
    t_restricted, got = _timed(lambda: sim.run_sequences_nets(pump, watch))
    compiled = compile_circuit(deep)
    original = compiled.dff_fire_schedule
    try:
        compiled.dff_fire_schedule = lambda fired: None  # force full re-settles
        t_full, want = _timed(lambda: sim.run_sequences_nets(pump, watch))
    finally:
        compiled.dff_fire_schedule = original
    assert (got == want).all(), "cone-restricted re-settle diverged"
    ripple_speedup = t_full / t_restricted

    update_perf_report("traces", {
        "circuit": "c3540 + 5-bit counter Trojan",
        "gates": circuit.num_logic_gates,
        "nets_watched": n_nets,
        "generation": {
            "n_sequences": N_SEQUENCES,
            "n_vectors": N_VECTORS,
            "toggles_s": t_toggles,
            "weighting_s": t_weight,
            "net_cycles_per_s": gen_rate,
        },
        "population": {
            "n_chips": N_CHIPS,
            "n_repeats": config.n_repeats,
            "wall_s": t_chips,
            "chips_per_s": chips_per_s,
        },
        "ripple_resettle": {
            "workload": "5-bit PI-clocked counter, edge every other vector",
            "restricted_s": t_restricted,
            "full_s": t_full,
            "speedup": ripple_speedup,
        },
    })

    assert len(chips) == N_CHIPS
    assert gen_rate >= MIN_NET_CYCLES_PER_S, (
        f"trace generation regressed: {gen_rate:.2e} net-cycles/s < "
        f"{MIN_NET_CYCLES_PER_S:.0e} (per-net Python loop in the hot path? "
        f"see {BENCH_PERF_PATH})"
    )
    assert chips_per_s >= MIN_CHIPS_PER_S, (
        f"chip measurement regressed: {chips_per_s:.1f} chips/s (see {BENCH_PERF_PATH})"
    )
    assert ripple_speedup >= MIN_RIPPLE_SPEEDUP, (
        f"cone-restricted ripple re-settle regressed: {ripple_speedup:.2f}x "
        f"< {MIN_RIPPLE_SPEEDUP}x (see {BENCH_PERF_PATH})"
    )

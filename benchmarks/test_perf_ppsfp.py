"""PPSFP perf harness: batched fault sweep vs. per-fault compiled path.

Times ``FaultSimulator.run(mode="ppsfp")`` against ``mode="single"`` on the
largest ISCAS-class circuits at benchmark scale (128 faults x 4096 patterns,
``drop_detected=False`` so both engines sweep the full list) and merges a
``ppsfp`` section into ``BENCH_perf.json``.  Bit-identity of the two modes is
asserted in the same run — a speedup from a wrong answer is no speedup.

The floors are loud-regression tripwires, set well below the observed
speedups (c3540 ~3.7x, c6288 ~18x): they catch PPSFP silently degrading to
per-fault behaviour, not machine-to-machine variance.
"""

from __future__ import annotations

import time

import numpy as np

from repro.atpg import FaultSimulator, full_fault_list
from repro.bench import c3540_like
from repro.bench.iscas_extra import c6288_like

from conftest import BENCH_PERF_PATH, update_perf_report


N_PATTERNS = 4096
N_FAULTS = 128
REPEATS = 3

CIRCUITS = {
    "c3540": c3540_like,
    "c6288": c6288_like,
}

#: Loud-regression floor on the batch-vs-single speedup, per circuit.
MIN_SPEEDUP = 2.0


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_ppsfp(name, build, rng):
    circuit = build()
    patterns = (rng.random((N_PATTERNS, len(circuit.inputs))) < 0.5).astype(np.uint8)
    faults = full_fault_list(circuit)
    chosen = rng.choice(len(faults), N_FAULTS, replace=False)
    faults = [faults[i] for i in chosen]

    sim = FaultSimulator(circuit)
    # Warm both paths: cone schedules, batch plans, signature caches.
    single = sim.run(patterns, faults, drop_detected=False, mode="single")
    batched = sim.run(patterns, faults, drop_detected=False, mode="ppsfp")
    assert batched.detected == single.detected, (
        f"{name}: PPSFP diverged from the per-fault path"
    )

    t_single = _best_of(
        lambda: sim.run(patterns, faults, drop_detected=False, mode="single"), REPEATS
    )
    t_ppsfp = _best_of(
        lambda: sim.run(patterns, faults, drop_detected=False, mode="ppsfp"), REPEATS
    )

    work = len(faults) * N_PATTERNS
    return {
        "gates": circuit.num_logic_gates,
        "n_patterns": N_PATTERNS,
        "n_faults": len(faults),
        "detected": len(batched.detected),
        "single_s": t_single,
        "ppsfp_s": t_ppsfp,
        "single_fault_patterns_per_s": work / t_single,
        "ppsfp_fault_patterns_per_s": work / t_ppsfp,
        "speedup": t_single / t_ppsfp,
    }


def test_ppsfp_batch_throughput():
    rng = np.random.default_rng(2026)
    results = {
        name: _bench_ppsfp(name, build, rng) for name, build in CIRCUITS.items()
    }
    update_perf_report("ppsfp", {
        "workload": f"{N_FAULTS} faults x {N_PATTERNS} patterns, "
        "drop_detected=False (full sweep)",
        "units": "fault-patterns per second",
        "circuits": results,
    })
    slow = {
        n: round(r["speedup"], 2)
        for n, r in results.items()
        if r["speedup"] < MIN_SPEEDUP
    }
    assert not slow, (
        f"PPSFP batch speedup regressed below {MIN_SPEEDUP}x on {slow} "
        f"(see {BENCH_PERF_PATH})"
    )

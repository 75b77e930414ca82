"""Fleet perf harness: supervised-pool overhead into ``BENCH_perf.json``.

The supervised execution layer (`repro.api.fleet.CellSupervisor`) wraps the
worker pool with windowed submission, deadline polling, and retry
bookkeeping.  On a *clean* campaign (no faults) all of that must be noise:
this bench runs the same cell grid through a bare ``ProcessPoolExecutor``
(the pre-fleet path) and through the supervisor and asserts the overhead
stays under ``MAX_OVERHEAD_PCT`` — a loud CI floor so the fault-tolerance
substrate can never silently tax every campaign.

Cells are real c432 pipeline runs (~1.5 s each), so the measured delta is
dominated by supervision mechanics, not process startup jitter; both paths
fork from a parent with a warm structural compile cache.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro.api import CellSupervisor, ExperimentSpec, FleetPolicy, run_experiment
from repro.api.runner import _campaign_worker

from conftest import BENCH_PERF_PATH, update_perf_report


N_CELLS = 6
JOBS = 2

#: Loud-regression floor: supervised-pool overhead on a clean campaign.
MAX_OVERHEAD_PCT = 5.0


def _specs():
    return [
        ExperimentSpec(circuit="c432", pth=0.975, design="counter2", seed=seed)
        for seed in range(N_CELLS)
    ]


def _run_bare(specs) -> float:
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=JOBS) as executor:
        futures = [executor.submit(_campaign_worker, s.to_dict()) for s in specs]
        results = [f.result() for f in as_completed(futures)]
    assert len(results) == len(specs)
    return time.perf_counter() - start


def _run_supervised(specs) -> float:
    start = time.perf_counter()
    supervisor = CellSupervisor(specs, jobs=JOBS, policy=FleetPolicy())
    records = list(supervisor.iter_records())
    assert len(records) == len(specs)
    assert not [r for r in records if r.error is not None]
    return time.perf_counter() - start


def _latency_probe():
    """Per-cell supervision latency on a grid of tiny cells (worst case for
    relative overhead: ~ms cells make every parent wake-up visible)."""
    specs = [
        ExperimentSpec(circuit="c17", pth=0.9, seed=seed) for seed in range(40)
    ]
    run_experiment(specs[0])
    bare_s = min(_run_bare(specs) for _ in range(3))
    supervised_s = min(_run_supervised(specs) for _ in range(3))
    return (supervised_s - bare_s) / len(specs) * 1e3


def test_supervised_pool_overhead():
    specs = _specs()
    # Warm the parent's structural compile cache: forked workers inherit it,
    # so neither path pays cold compiles and the delta is pure supervision.
    run_experiment(specs[0])

    # Strictly alternate the two paths and compare the best of each: single
    # runs on shared CI hardware jitter by ~10%, far above the supervision
    # cost being measured, and the min estimator under interleaving cancels
    # slow-machine phases fairly.  A reading over the floor is confirmed
    # with extra pairs before failing — a real regression reproduces, a
    # noise spike does not.
    bare_times, supervised_times = [], []

    def overhead_pct() -> float:
        return 100.0 * (min(supervised_times) - min(bare_times)) / min(bare_times)

    for round_ in (2, 3):
        for _ in range(round_):
            bare_times.append(_run_bare(specs))
            supervised_times.append(_run_supervised(specs))
        if overhead_pct() < MAX_OVERHEAD_PCT:
            break

    per_cell_ms = _latency_probe()
    update_perf_report("fleet", {
        "workload": f"{N_CELLS} x c432 counter2 cells, {JOBS} workers, clean run",
        "n_cells": N_CELLS,
        "jobs": JOBS,
        "bare_pool_s": min(bare_times),
        "supervised_s": min(supervised_times),
        "overhead_pct": overhead_pct(),
        "supervision_latency_ms_per_cell": per_cell_ms,
        "latency_probe": "40 x c17 cells (~ms each), best of 3",
    })

    assert overhead_pct() < MAX_OVERHEAD_PCT, (
        f"supervised-pool overhead regressed: {overhead_pct():.2f}% > "
        f"{MAX_OVERHEAD_PCT}% on a clean campaign (per-cell supervision must "
        f"stay off the hot path; see {BENCH_PERF_PATH})"
    )

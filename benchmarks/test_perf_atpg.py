"""Defender-ATPG perf harness: test generation, compaction and fault masks.

Times ``generate_test_set`` under the default defender profile
(``DefenderModel().atpg``) on c432, c880, c3540 and c6288, the median of
three runs, and takes c6288's ``tracemalloc`` peak in a separate untimed
run; times detection-mask compaction against the re-simulating oracle kept
in the tests, on c880's pre-compaction pattern matrix; and times
``FaultSimulator.detection_masks`` (one event-driven observability walk per
fanout-free-region root) against ``reference_detection_masks`` (one walk of
each fault's own fanout cone) on c3540's pre-compaction pattern matrix and
every collapsed fault; and times
``PodemEngine`` (event-driven, cone-restricted faulty plane, truth tables)
against ``FullImplyPodem`` (whole-circuit re-simulation with ``evaluate3``
per decision) over every collapsed fault of Phase A's synthesized c432 and
c880 at the defender's backtrack limit.  Merges an ``atpg`` section into
``BENCH_perf.json``.  Each pair must agree — the same kept rows, the same
masks, the same PODEM results — since a speedup from a wrong answer is no
speedup.

The floors are loud-regression tripwires well below the observed speedups
(~60x for compaction on c880, ~2x for the masks on c3540, ~26x for PODEM):
they catch compaction falling back to per-pattern re-simulation, the masks
falling back to one cone walk per fault and PODEM losing its cone
restriction and truth tables (that engine read ~11x), not machine-to-machine
variance.  The c6288 memory ceiling is a tripwire of the same kind: ~3 MB
peak when fault simulation keeps nothing per root, ~15 MB when each
simulated root's cone row list stays cached on the compiled form.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from repro.atpg import FaultSimulator, PodemEngine, collapse_faults, generate_test_set
from repro.atpg import generate as generate_module
from repro.bench import c432_like, c880_like, c3540_like, c6288_like
from repro.core.thresholds import DefenderModel
from repro.power.synthesis import optimize_netlist
from repro.sim.compiled import compile_circuit
from tests.oracles import FullImplyPodem, reference_detection_masks
from tests.test_atpg_generate import oracle_compact
from tests.test_ppsfp import defender_patterns

from conftest import BENCH_PERF_PATH, update_perf_report

REPEATS = 3

CIRCUITS = {
    "c432": c432_like,
    "c880": c880_like,
    "c3540": c3540_like,
    "c6288": c6288_like,
}

#: Loud-regression floor on mask compaction vs. the re-simulating oracle.
MIN_COMPACTION_SPEEDUP = 10.0

#: Loud-regression floor on region-root masks vs. the per-fault cone walk.
MIN_MASKS_SPEEDUP = 1.5

#: Loud-regression floor on PODEM vs. the whole-circuit re-simulating oracle.
MIN_PODEM_SPEEDUP = 12.0

#: Loud-regression ceiling on c6288 ``generate_test_set``'s traced peak.
MAX_C6288_GENERATE_PEAK_MB = 8.0


def _median_time(fn, repeats: int = REPEATS):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _traced_peak_mb(fn) -> float:
    """Peak traced allocation of ``fn()``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_atpg_generate_and_compaction(monkeypatch):
    config = DefenderModel().atpg
    # Untimed and first, so the compiled form's on-demand state is built
    # inside the traced run; the compile itself stays outside it.
    circuit = c6288_like()
    compile_circuit(circuit)
    c6288_peak_mb = _traced_peak_mb(lambda: generate_test_set(circuit, config))
    generate = {}
    for name, build in CIRCUITS.items():
        circuit = build()
        seconds, ts = _median_time(lambda: generate_test_set(circuit, config))
        generate[name] = {
            "generate_s": seconds,
            "n_patterns": ts.n_patterns,
            "coverage": ts.coverage,
        }
    generate["c6288"]["tracemalloc_peak_mb"] = c6288_peak_mb

    circuit = c880_like()
    patterns = defender_patterns(circuit, monkeypatch)
    faults = collapse_faults(circuit)
    simulator = FaultSimulator(circuit)
    mask_s, kept = _median_time(
        lambda: generate_module._compact(
            simulator.detection_masks(patterns, faults), patterns
        )
    )
    oracle_s, oracle_kept = _median_time(
        lambda: oracle_compact(simulator, patterns, faults)
    )
    assert np.array_equal(kept, oracle_kept), "mask compaction diverged from the oracle"
    speedup = oracle_s / mask_s

    circuit = c3540_like()
    wide = defender_patterns(circuit, monkeypatch)
    faults = collapse_faults(circuit)
    simulator = FaultSimulator(circuit)
    region_s, masks = _median_time(lambda: simulator.detection_masks(wide, faults))
    per_fault_s, want = _median_time(
        lambda: reference_detection_masks(circuit, wide, faults)
    )
    assert masks == want, "region-root masks diverged from the per-fault walk"
    masks_speedup = per_fault_s / region_s

    update_perf_report("atpg", {
        "workload": "generate_test_set under DefenderModel().atpg, median of "
        f"{REPEATS}; c880 compaction (mask pass + set cover) vs. the "
        "re-simulating oracle; c6288 tracemalloc peak of one untimed run; "
        "c3540 detection_masks (one event-driven observability walk per "
        "fanout-free-region root) vs. the per-fault cone walk",
        "generate": generate,
        "compaction": {
            "circuit": "c880",
            "rows_in": int(patterns.shape[0]),
            "rows_kept": int(len(kept)),
            "mask_s": mask_s,
            "oracle_s": oracle_s,
            "speedup": speedup,
        },
        "detection_masks": {
            "circuit": "c3540",
            "patterns": int(wide.shape[0]),
            "faults": len(faults),
            "region_s": region_s,
            "per_fault_s": per_fault_s,
            "speedup": masks_speedup,
        },
    })
    assert speedup >= MIN_COMPACTION_SPEEDUP, (
        f"mask compaction speedup regressed: {speedup:.1f}x < "
        f"{MIN_COMPACTION_SPEEDUP}x over the re-simulating oracle on c880 "
        f"(see {BENCH_PERF_PATH})"
    )
    assert c6288_peak_mb <= MAX_C6288_GENERATE_PEAK_MB, (
        f"c6288 generate_test_set traced peak regressed: {c6288_peak_mb:.1f} MB > "
        f"{MAX_C6288_GENERATE_PEAK_MB} MB (see {BENCH_PERF_PATH})"
    )
    assert masks_speedup >= MIN_MASKS_SPEEDUP, (
        f"detection_masks speedup regressed: {masks_speedup:.2f}x < "
        f"{MIN_MASKS_SPEEDUP}x over the per-fault cone walk on c3540 "
        f"(see {BENCH_PERF_PATH})"
    )


def _podem_results(engine_cls, circuit, faults, backtrack_limit):
    engine = engine_cls(circuit, backtrack_limit)
    return [
        (r.status, r.test, r.backtracks, r.decisions)
        for r in map(engine.generate, faults)
    ]


def test_podem_vs_full_imply():
    limit = DefenderModel().atpg.backtrack_limit
    rows, engine_total, oracle_total = {}, 0.0, 0.0
    for name in ("c432", "c880"):
        circuit = optimize_netlist(CIRCUITS[name]())
        faults = collapse_faults(circuit)
        engine_s, got = _median_time(
            lambda: _podem_results(PodemEngine, circuit, faults, limit)
        )
        oracle_s, want = _median_time(
            lambda: _podem_results(FullImplyPodem, circuit, faults, limit), repeats=1
        )
        assert got == want, f"PODEM diverged from the re-simulating oracle on {name}"
        rows[name] = {
            "faults": len(faults),
            "engine_s": engine_s,
            "oracle_s": oracle_s,
            "speedup": oracle_s / engine_s,
        }
        engine_total += engine_s
        oracle_total += oracle_s
    speedup = oracle_total / engine_total
    update_perf_report("atpg.podem", {
        "workload": "every collapsed fault of the synthesized circuit at "
        f"backtrack limit {limit}: PodemEngine (median of {REPEATS}) vs. "
        "FullImplyPodem (one run)",
        "circuits": rows,
        "speedup": speedup,
    })
    assert speedup >= MIN_PODEM_SPEEDUP, (
        f"PODEM speedup regressed: {speedup:.1f}x < {MIN_PODEM_SPEEDUP}x over "
        f"the re-simulating oracle on c432 + c880 (see {BENCH_PERF_PATH})"
    )

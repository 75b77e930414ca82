"""Defender-ATPG perf harness: test generation, compaction and fault masks.

Times ``generate_test_set`` under the default defender profile
(``DefenderModel().atpg``) on c432, c880, c3540 and c6288, the median of
three runs; times detection-mask compaction against the re-simulating oracle
kept in the tests, on c880's pre-compaction pattern matrix; and times
``FaultSimulator.detection_masks`` (one cone walk per fanout-free-region
root) against ``reference_detection_masks`` (one cone walk per fault) on
c3540's pre-compaction pattern matrix and every collapsed fault.  Merges an
``atpg`` section into ``BENCH_perf.json``.  Each pair must agree — the same
kept rows, the same masks — since a speedup from a wrong answer is no
speedup.

The floors are loud-regression tripwires well below the observed speedups
(~60x for compaction on c880, ~2x for the masks on c3540): they catch
compaction falling back to per-pattern re-simulation and the masks falling
back to one cone walk per fault, not machine-to-machine variance.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.atpg import FaultSimulator, collapse_faults, generate_test_set
from repro.atpg import generate as generate_module
from repro.bench import c432_like, c880_like, c3540_like, c6288_like
from repro.core.thresholds import DefenderModel
from tests.oracles import reference_detection_masks
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


def _median_time(fn, repeats: int = REPEATS):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def test_atpg_generate_and_compaction(monkeypatch):
    config = DefenderModel().atpg
    generate = {}
    for name, build in CIRCUITS.items():
        circuit = build()
        seconds, ts = _median_time(lambda: generate_test_set(circuit, config))
        generate[name] = {
            "generate_s": seconds,
            "n_patterns": ts.n_patterns,
            "coverage": ts.coverage,
        }

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
        "re-simulating oracle; c3540 detection_masks (one cone walk per "
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
    assert masks_speedup >= MIN_MASKS_SPEEDUP, (
        f"detection_masks speedup regressed: {masks_speedup:.2f}x < "
        f"{MIN_MASKS_SPEEDUP}x over the per-fault cone walk on c3540 "
        f"(see {BENCH_PERF_PATH})"
    )

"""Defender-ATPG perf harness: test generation and compaction.

Times ``generate_test_set`` under the default defender profile
(``DefenderModel().atpg``) on c432, c880 and c3540, the median of three runs,
and times detection-mask compaction against the re-simulating oracle kept in
the tests, on c880's pre-compaction pattern matrix.  Merges an ``atpg``
section into ``BENCH_perf.json``.  The two compactions must keep the same
rows — a speedup from a wrong answer is no speedup.

The floor is a loud-regression tripwire well below the observed compaction
speedup (~60x on c880): it catches compaction falling back to per-pattern
re-simulation, not machine-to-machine variance.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.atpg import FaultSimulator, collapse_faults, generate_test_set
from repro.atpg import generate as generate_module
from repro.bench import c432_like, c880_like, c3540_like
from repro.core.thresholds import DefenderModel
from tests.test_atpg_generate import oracle_compact

from conftest import BENCH_PERF_PATH, update_perf_report

REPEATS = 3

CIRCUITS = {
    "c432": c432_like,
    "c880": c880_like,
    "c3540": c3540_like,
}

#: Loud-regression floor on mask compaction vs. the re-simulating oracle.
MIN_COMPACTION_SPEEDUP = 10.0


def _median_time(fn, repeats: int = REPEATS):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _uncompacted_patterns(circuit, config, monkeypatch) -> np.ndarray:
    """The pattern matrix ``generate_test_set`` hands to compaction."""
    seen = []
    real = generate_module._compact

    def capture(masks, patterns):
        seen.append(patterns)
        return real(masks, patterns)

    monkeypatch.setattr(generate_module, "_compact", capture)
    generate_test_set(circuit, config)
    monkeypatch.undo()
    (patterns,) = seen
    return patterns


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
    patterns = _uncompacted_patterns(circuit, config, monkeypatch)
    faults = collapse_faults(circuit)
    simulator = FaultSimulator(circuit)
    mask_s, kept = _median_time(
        lambda: generate_module._compact(
            simulator.detection_masks(patterns, faults), patterns
        )
    )
    oracle_s, oracle_kept = _median_time(
        lambda: oracle_compact(simulator, patterns, faults, config.fault_sim_mode)
    )
    assert np.array_equal(kept, oracle_kept), "mask compaction diverged from the oracle"
    speedup = oracle_s / mask_s

    update_perf_report("atpg", {
        "workload": "generate_test_set under DefenderModel().atpg, median of "
        f"{REPEATS}; c880 compaction (mask pass + set cover) vs. the "
        "re-simulating oracle",
        "generate": generate,
        "compaction": {
            "circuit": "c880",
            "rows_in": int(patterns.shape[0]),
            "rows_kept": int(len(kept)),
            "mask_s": mask_s,
            "oracle_s": oracle_s,
            "speedup": speedup,
        },
    })
    assert speedup >= MIN_COMPACTION_SPEEDUP, (
        f"mask compaction speedup regressed: {speedup:.1f}x < "
        f"{MIN_COMPACTION_SPEEDUP}x over the re-simulating oracle on c880 "
        f"(see {BENCH_PERF_PATH})"
    )

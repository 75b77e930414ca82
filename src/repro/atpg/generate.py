"""Full ATPG flow: the defender's test-pattern generation (TetraMAX substitute).

Mirrors industrial practice (Bushnell & Agrawal, ch. 7, which the paper cites
for the stuck-at testing model):

1. **Random phase** — simulate blocks of random patterns, keep each block
   only if it detects new faults (cheap coverage of the easy faults).
2. **Deterministic phase** — PODEM on every remaining collapsed fault with a
   backtrack budget; each new vector is fault-simulated against all remaining
   faults so secondary detections are dropped.
3. **Compaction** — one fault-simulation pass records, per fault, the
   bitmask of every pattern that detects it; reverse-order static compaction
   is then greedy set cover on those masks (a vector is kept only if removing
   it would leave some fault undetected), and the final coverage is read off
   the same masks after the pattern budget cut — no re-simulation.

The resulting :class:`TestSet` is the defender's TP set: its coverage holes
(aborted + untestable faults) are exactly where Algorithm 1's removals and
Algorithm 2's trigger wiring must hide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..netlist.circuit import Circuit
from .fault import StuckAtFault, collapse_faults, full_fault_list
from .faultsim import FaultSimulator
from .podem import PodemEngine, PodemStatus
from .testability import compute_testability


@dataclass
class TestSet:
    """The defender's generated test patterns plus bookkeeping."""

    circuit_name: str
    patterns: np.ndarray  # (n_patterns, n_inputs) uint8, PI order = circuit.inputs
    total_faults: int
    detected_faults: int
    aborted: List[StuckAtFault] = field(default_factory=list)
    untestable: List[StuckAtFault] = field(default_factory=list)
    #: Faults never attempted because the coverage target / pattern budget
    #: was reached first (the hardest faults, under SCOAP ordering).
    not_attempted: List[StuckAtFault] = field(default_factory=list)
    #: Faults provably covered by the final compacted pattern set.
    covered: Set[StuckAtFault] = field(default_factory=set)

    @property
    def coverage(self) -> float:
        return self.detected_faults / self.total_faults if self.total_faults else 1.0

    @property
    def n_patterns(self) -> int:
        return int(self.patterns.shape[0])

    def covers(self, fault: StuckAtFault) -> bool:
        return fault in self.covered


@dataclass(frozen=True)
class AtpgConfig:
    """Effort knobs of the defender's ATPG run.

    ``target_coverage`` and ``max_patterns`` model the budgets every
    production test program runs under: once the deterministic phase reaches
    the coverage sign-off target (or the pattern budget), the remaining —
    by construction the *hardest*, i.e. rare-excitation — faults are left
    untested.  Those holes are exactly where TrojanZero's edits hide.
    """

    backtrack_limit: int = 50
    random_blocks: int = 8
    block_size: int = 64
    compaction: bool = True
    seed: int = 2019  # DATE 2019
    #: Stop deterministic generation once this fault coverage is reached.
    target_coverage: float = 1.0
    #: Hard cap on the final pattern count (None = unlimited).
    max_patterns: Optional[int] = None


def generate_test_set(
    circuit: Circuit,
    config: Optional[AtpgConfig] = None,
    faults: Optional[Sequence[StuckAtFault]] = None,
) -> TestSet:
    """Run the full ATPG flow on a combinational circuit."""
    config = config or AtpgConfig()
    rng = np.random.default_rng(config.seed)
    target_faults = list(faults) if faults is not None else collapse_faults(circuit)
    total = len(target_faults)
    simulator = FaultSimulator(circuit)
    engine = PodemEngine(circuit, backtrack_limit=config.backtrack_limit)
    n_inputs = len(circuit.inputs)

    kept_patterns: List[np.ndarray] = []
    remaining: List[StuckAtFault] = list(target_faults)

    # ------------------------------------------------------------------
    # Phase 1: random patterns with fault dropping.
    for _ in range(config.random_blocks):
        if not remaining:
            break
        block = (rng.random((config.block_size, n_inputs)) < 0.5).astype(np.uint8)
        outcome = simulator.run(block, remaining)
        if outcome.detected:
            detecting_rows = sorted({idx for idx in outcome.detected.values()})
            kept_patterns.append(block[detecting_rows])
            remaining = outcome.undetected

    # ------------------------------------------------------------------
    # Phase 2: deterministic PODEM with cross-dropping, easiest faults first
    # (SCOAP ordering, like industrial tools), stopping at the coverage
    # target / pattern budget.
    if remaining:
        measures = compute_testability(circuit)
        remaining.sort(key=measures.fault_difficulty)
    aborted: List[StuckAtFault] = []
    untestable: List[StuckAtFault] = []
    not_attempted: List[StuckAtFault] = []
    index = 0
    while index < len(remaining):
        # Detected faults have been removed from ``remaining``; entries before
        # ``index`` are aborted/untestable.
        detected_so_far = total - len(remaining)
        if total and detected_so_far / total >= config.target_coverage:
            not_attempted = remaining[index:]
            break
        if (
            config.max_patterns is not None
            and sum(p.shape[0] for p in kept_patterns) >= config.max_patterns
        ):
            not_attempted = remaining[index:]
            break
        fault = remaining[index]
        result = engine.generate(fault)
        if result.status is PodemStatus.DETECTED:
            vector = np.array(
                [[result.test[pi] for pi in circuit.inputs]], dtype=np.uint8
            )
            kept_patterns.append(vector)
            outcome = simulator.run(vector, remaining[index:])
            if fault in outcome.undetected:
                # Defensive: PODEM claimed detection but simulation disagrees
                # (should not happen); avoid looping forever on this fault.
                aborted.append(fault)
                outcome.undetected.remove(fault)
            remaining = remaining[:index] + outcome.undetected
        else:
            if result.status is PodemStatus.ABORTED:
                aborted.append(fault)
            else:
                untestable.append(fault)
            index += 1
        # Faults before ``index`` are all aborted/untestable; detected ones
        # were removed from ``remaining`` by the cross-drop.
        index = len(aborted) + len(untestable)

    patterns = (
        np.concatenate(kept_patterns, axis=0)
        if kept_patterns
        else np.zeros((0, n_inputs), dtype=np.uint8)
    )

    # ------------------------------------------------------------------
    # Phase 3: reverse-order static compaction, then the pattern budget.  One
    # detection-mask pass serves both, and the coverage of the final set.
    masks = simulator.detection_masks(patterns, target_faults)
    if config.compaction and patterns.shape[0] > 1:
        kept = _compact(masks, patterns)
    else:
        kept = np.arange(patterns.shape[0])
    if config.max_patterns is not None:
        kept = kept[: config.max_patterns]
    patterns = patterns[kept]
    kept_bits = sum(1 << int(row) for row in kept)
    covered = {f for f, mask in zip(target_faults, masks) if mask & kept_bits}
    return TestSet(
        circuit_name=circuit.name,
        patterns=patterns,
        total_faults=total,
        detected_faults=len(covered),
        aborted=aborted,
        untestable=untestable,
        not_attempted=not_attempted,
        covered=covered,
    )


def _compact(masks: Sequence[int], patterns: np.ndarray) -> np.ndarray:
    """Reverse-order static compaction: drop vectors that add no coverage.

    ``masks`` are the faults' detection masks over ``patterns``' rows.  Row
    *r* is dropped iff every fault it detects is still detected by some
    other row still kept; returns the kept row indices, ascending.
    """
    detected = [mask for mask in masks if mask]
    keep = (1 << patterns.shape[0]) - 1
    for row in range(patterns.shape[0] - 1, -1, -1):
        bit = 1 << row
        trial = keep & ~bit
        if all(mask & trial for mask in detected if mask & bit):
            keep = trial
    return np.array(
        [row for row in range(patterns.shape[0]) if keep >> row & 1], dtype=np.intp
    )


def uncovered_faults(test_set: TestSet, faults: Sequence[StuckAtFault]) -> List[StuckAtFault]:
    """Subset of ``faults`` the defender's TP set does not detect."""
    return [f for f in faults if f not in test_set.covered]

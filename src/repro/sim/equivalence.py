"""Vector-based functional comparison of two circuits.

This is the defender's "functional testing" step (ModelSim in the paper's
flow, Fig. 6): apply test patterns to both circuits and compare primary
outputs.  It is also used internally by Algorithm 1 to accept or revert a
candidate-gate removal, and by the test suite for miter-style exhaustive
equivalence on small blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from .bitsim import BitSimulator, exhaustive_patterns
from .seqsim import SequentialSimulator


@dataclass
class ComparisonResult:
    """Outcome of a pattern-based functional comparison."""

    equivalent: bool
    patterns_applied: int
    mismatches: int
    #: Up to ``max_witnesses`` (pattern index, output name) mismatch witnesses.
    witnesses: List[Tuple[int, str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent


def _check_interfaces(golden: Circuit, candidate: Circuit) -> None:
    if tuple(golden.inputs) != tuple(candidate.inputs):
        raise ValueError(
            f"input interfaces differ: {golden.inputs[:4]}... vs {candidate.inputs[:4]}..."
        )
    if set(golden.outputs) != set(candidate.outputs):
        raise ValueError(
            f"output interfaces differ: {sorted(golden.outputs)[:4]} vs "
            f"{sorted(candidate.outputs)[:4]}"
        )


def compare_on_patterns(
    golden: Circuit,
    candidate: Circuit,
    patterns: np.ndarray,
    max_witnesses: int = 8,
) -> ComparisonResult:
    """Compare primary outputs of two combinational circuits on ``patterns``."""
    _check_interfaces(golden, candidate)
    patterns = np.atleast_2d(np.asarray(patterns))
    golden_out = BitSimulator(golden).run(patterns)
    cand_out = BitSimulator(candidate).run(patterns)
    return _diff_outputs(golden, candidate, golden_out, cand_out, max_witnesses)


def compare_sequential_on_patterns(
    golden: Circuit,
    candidate: Circuit,
    patterns: np.ndarray,
    max_witnesses: int = 8,
) -> ComparisonResult:
    """Compare a (possibly sequential) candidate against a combinational golden.

    The defender applies TPs one after another; a Trojan-infected circuit's
    counter state evolves across that sequence, which is exactly what decides
    whether the Trojan fires during test.  Patterns are therefore applied as
    one ordered sequence.
    """
    _check_interfaces(golden, candidate)
    patterns = np.atleast_2d(np.asarray(patterns))
    golden_out = BitSimulator(golden).run(patterns)
    cand_out = SequentialSimulator(candidate).run_sequences(patterns[np.newaxis, :, :])[0]
    return _diff_outputs(golden, candidate, golden_out, cand_out, max_witnesses)


def _diff_outputs(
    golden: Circuit,
    candidate: Circuit,
    golden_out: np.ndarray,
    cand_out: np.ndarray,
    max_witnesses: int,
) -> ComparisonResult:
    """Diff two output matrices, aligning the candidate's columns to the
    golden output order first."""
    col = {name: i for i, name in enumerate(candidate.outputs)}
    diff = golden_out != cand_out[:, [col[o] for o in golden.outputs]]
    mism = int(diff.sum())
    rows, cols = np.nonzero(diff)
    witnesses = [
        (int(r), golden.outputs[int(c)])
        for r, c in zip(rows[:max_witnesses], cols[:max_witnesses])
    ]
    return ComparisonResult(mism == 0, golden_out.shape[0], mism, witnesses)


def compare_exhaustive(
    golden: Circuit, candidate: Circuit, max_inputs: int = 20
) -> ComparisonResult:
    """Miter-style exhaustive comparison for small circuits (tests only)."""
    if len(golden.inputs) > max_inputs:
        raise ValueError(
            f"{len(golden.inputs)} inputs is too many for exhaustive comparison"
        )
    return compare_on_patterns(golden, candidate, exhaustive_patterns(len(golden.inputs)))


def functional_test(
    candidate: Circuit,
    golden: Circuit,
    pattern_sets: Sequence[np.ndarray],
) -> bool:
    """Run the defender's q testing algorithms (pattern sets) — all must pass.

    Mirrors Algorithm 1 lines 17-22 / Algorithm 2 lines 3-8: iterate the
    defender's test algorithms, stop at the first failure.  A sequential
    candidate sees each pattern set as one ordered sequence.
    """
    for patterns in pattern_sets:
        if candidate.is_sequential:
            result = compare_sequential_on_patterns(golden, candidate, patterns)
        else:
            result = compare_on_patterns(golden, candidate, patterns)
        if not result:
            return False
    return True

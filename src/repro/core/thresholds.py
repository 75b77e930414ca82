"""Phase A of the TrojanZero flow (Fig. 2, Sec. II-A).

Verify the HT-free circuit, generate the defender's test patterns (stuck-at
ATPG plus optional bespoke random vectors), synthesize/characterize it, and
freeze the power and area *thresholds* that every later phase must respect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..atpg.generate import AtpgConfig, TestSet, generate_test_set
from ..atpg.random_patterns import flat_random_vectors
from ..netlist.circuit import Circuit
from ..netlist.validate import assert_valid
from ..power.analysis import PowerReport, analyze
from ..power.library import CellLibrary
from ..power.synthesis import optimize_netlist


@dataclass(frozen=True)
class DefenderModel:
    """What the attacker knows about the defender's testing (attack model 2).

    The paper's attacker "acquires the knowledge of specific testing
    techniques that are used by the defender" — here, the ATPG effort knobs
    and how many bespoke random vectors are applied.

    The default profile models a production functional-test program: SCOAP
    easiest-first ordering, a moderate per-fault abort limit, sign-off at 97%
    stuck-at coverage, and a 64-vector pattern budget — the regime in which
    rare-excitation faults are the ones left uncovered (see AtpgConfig).

    Frozen, so it hashes: it is part of the Phase A memo key
    (:func:`repro.core.pipeline.phase_a`), and a field added later joins the
    key with it.
    """

    atpg: AtpgConfig = field(
        default_factory=lambda: AtpgConfig(
            backtrack_limit=20,
            random_blocks=4,
            target_coverage=0.97,
            max_patterns=64,
        )
    )
    n_random_vectors: int = 256
    random_seed: int = 7


@dataclass
class ThresholdReport:
    """Output of Phase A: the frozen baseline the attack must not exceed."""

    circuit: Circuit
    power: PowerReport
    test_set: TestSet
    #: The defender's q "testing algorithms" the attacker KNOWS (attack model
    #: assumption 2) — the ATPG stuck-at pattern sets.  Algorithms 1 and 2
    #: verify edits against these.
    pattern_sets: List[np.ndarray] = field(default_factory=list)
    #: Bespoke random vectors the defender may additionally apply and the
    #: attacker does NOT know (paper Sec. IV).  Never used for edit
    #: acceptance; only for post-hoc exposure evaluation (Pft / Pu).
    bespoke_sets: List[np.ndarray] = field(default_factory=list)

    @property
    def n_test_vectors(self) -> int:
        """Total defender session length (known + bespoke vectors)."""
        known = sum(int(p.shape[0]) for p in self.pattern_sets)
        bespoke = sum(int(p.shape[0]) for p in self.bespoke_sets)
        return known + bespoke


def compute_thresholds(
    circuit: Circuit,
    library: CellLibrary,
    defender: Optional[DefenderModel] = None,
    optimize: bool = True,
) -> ThresholdReport:
    """Run Phase A on the HT-free circuit ``N``.

    Returns the verified circuit (optionally synthesis-cleaned), its
    :class:`~repro.power.analysis.PowerReport` (the thresholds), the
    defender's ATPG test set, and the full list of defender pattern sets.
    """
    defender = defender or DefenderModel()
    assert_valid(circuit)
    baseline = optimize_netlist(circuit) if optimize else circuit.copy()
    assert_valid(baseline)

    test_set = generate_test_set(baseline, defender.atpg)
    pattern_sets: List[np.ndarray] = []
    if test_set.patterns.size:
        pattern_sets.append(test_set.patterns)
    bespoke_sets: List[np.ndarray] = []
    if defender.n_random_vectors > 0:
        rng = np.random.default_rng(defender.random_seed)
        bespoke_sets.append(
            flat_random_vectors(defender.n_random_vectors, len(baseline.inputs), rng)
        )

    power = analyze(baseline, library)
    return ThresholdReport(
        circuit=baseline,
        power=power,
        test_set=test_set,
        pattern_sets=pattern_sets,
        bespoke_sets=bespoke_sets,
    )

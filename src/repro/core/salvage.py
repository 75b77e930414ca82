"""Algorithm 1: Salvaging Power and Area.

Given the verified HT-free circuit ``N`` and the defender's test patterns,
find the candidate set ``C`` of nodes with near-constant signal probability
(``P ≥ Pth`` for either polarity), try tying each candidate to its dominant
constant, dead-strip the fan-in logic this strands, and keep each edit only
if *every* defender pattern set still passes.  The freed power and area are
the salvaged budget for HT insertion.

A trial is stuck-at fault simulation (ATPG-based redundancy removal,
Bushnell & Agrawal): tying net *s* to *v* is the fault *s* stuck-at-*v*,
and the edit passes exactly when no defender pattern detects it in the
working circuit.  Every accepted edit passed every pattern, so the working
circuit equals ``N`` at the outputs on every pattern, and a trial need not
compare against ``N`` at all.  ``N`` is simulated once on all patterns, on
its compiled form, as one Python int per row
(:func:`repro.atpg.faultsim.good_values`); each trial forces *s* to *v* and
walks *s*'s fanout cone (:func:`repro.atpg.faultsim.propagate_forced`),
rows tied by earlier accepted edits acting as inputless sources.  No PO
change accepts the edit: the walk's changed rows merge into the per-row
values, and the tie and dead-strip are applied to the working circuit once.
Salvage therefore compiles nothing when ``N`` is already compiled (as
Phase A leaves it); :attr:`SalvageResult.compile_stats` records that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..atpg.faultsim import good_values, propagate_forced
from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gate import GateType
from ..netlist.transform import strip_dead_logic, tie_net_to_constant
from ..power.analysis import PowerDelta, PowerReport, analyze
from ..power.library import CellLibrary
from ..prob.propagate import rare_nodes, signal_probabilities
from ..sim.compiled import COMPILE_STATS, compile_circuit


@dataclass(frozen=True)
class RemovalRecord:
    """Outcome of trying one candidate gate."""

    net: str
    p_one: float
    tied_value: int
    accepted: bool
    #: Gates dead-stripped as a consequence (empty when rejected).
    stripped_gates: Tuple[str, ...] = ()
    reason: str = ""


@dataclass
class SalvageResult:
    """Output of Algorithm 1."""

    original: Circuit
    modified: Circuit
    p_threshold: float
    candidates: List[Tuple[str, float]]
    removals: List[RemovalRecord]
    power_before: PowerReport
    power_after: PowerReport
    #: Compile-cache counter deltas over this run (see
    #: ``repro.sim.compiled.COMPILE_STATS``); no full compile when ``N``
    #: arrives compiled.
    compile_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def candidate_count(self) -> int:
        """|C| — paper Table I column C."""
        return len(self.candidates)

    @property
    def expendable_gates(self) -> int:
        """Eg — logic gates actually salvaged (removed or constant-tied)."""
        before = self.original.num_logic_gates
        after = sum(
            1 for g in self.modified.logic_gates() if not g.is_constant
        )
        ties_preexisting = sum(1 for g in self.original.logic_gates() if g.is_constant)
        return before - ties_preexisting - after

    @property
    def delta(self) -> PowerDelta:
        """ΔP / ΔA — the salvaged budget."""
        return self.power_before.delta(self.power_after)

    def accepted_removals(self) -> List[RemovalRecord]:
        return [r for r in self.removals if r.accepted]


def salvage(
    circuit: Circuit,
    pattern_sets: Sequence[np.ndarray],
    library: CellLibrary,
    p_threshold: float,
    power_before: Optional[PowerReport] = None,
    max_candidates: Optional[int] = None,
) -> SalvageResult:
    """Run Algorithm 1.

    Parameters
    ----------
    circuit:
        The verified HT-free circuit ``N`` (not mutated).
    pattern_sets:
        The defender's q testing algorithms' pattern arrays; an edit is kept
        only if all of them pass (Algorithm 1 lines 17-22).
    p_threshold:
        The attacker-specified ``Pth``; candidates have ``P(=1) ≥ Pth`` or
        ``P(=0) ≥ Pth``.
    max_candidates:
        Optional cap on how many candidates are attempted (largest extremity
        first), for bounded-effort runs.
    """
    if circuit.is_sequential:
        raise NetlistError("salvage runs on the combinational HT-free circuit")
    stats_before = COMPILE_STATS.snapshot()
    work = circuit.copy(f"{circuit.name}_mod")
    if power_before is None:
        power_before = analyze(circuit, library)

    candidates = rare_nodes(work, p_threshold)
    if max_candidates is not None:
        candidates = candidates[:max_candidates]

    # A view without the cone caches, so the walks below pin none on a
    # compiled form that outlives this call (the Phase A memo's).
    compiled = compile_circuit(circuit).without_caches()
    patterns = [np.atleast_2d(np.asarray(p)) for p in pattern_sets]
    values, full = good_values(
        compiled,
        np.vstack(patterns) if patterns else np.zeros((0, len(circuit.inputs))),
    )
    # N's gate table, with each accepted tie turned into a source row.
    node = list(compiled.node)

    removals: List[RemovalRecord] = []
    for net, p_one in candidates:
        if not work.has_net(net):
            removals.append(
                RemovalRecord(net, p_one, -1, False, reason="already stripped")
            )
            continue
        gate = work.gate(net)
        if gate.is_constant or gate.is_input:
            removals.append(
                RemovalRecord(net, p_one, -1, False, reason="not a logic gate")
            )
            continue
        tied_value = 1 if p_one >= 0.5 else 0

        row = compiled.index[net]
        forced = full if tied_value else 0
        changed = {row: forced} if forced != values[row] else {}
        if changed and propagate_forced(
            node, compiled.po_set, compiled.cone_rows_at(row), values, changed, full
        ):
            removals.append(
                RemovalRecord(
                    net,
                    p_one,
                    tied_value,
                    False,
                    reason="defender test pattern detected the edit",
                )
            )
            continue
        for changed_row, value in changed.items():
            values[changed_row] = value
        node[row] = (GateType.TIE1 if tied_value else GateType.TIE0, ())
        tie_net_to_constant(work, net, tied_value)
        removals.append(
            RemovalRecord(
                net,
                p_one,
                tied_value,
                True,
                stripped_gates=tuple(strip_dead_logic(work)),
                reason="passed all defender tests",
            )
        )

    power_after = analyze(work, library)
    return SalvageResult(
        original=circuit,
        modified=work,
        p_threshold=p_threshold,
        candidates=candidates,
        removals=removals,
        power_before=power_before,
        power_after=power_after,
        compile_stats=COMPILE_STATS.delta_since(stats_before),
    )

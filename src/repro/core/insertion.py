"""Algorithm 2: HT insertion using the TrojanZero methodology.

Iterate the HT library (largest design first), over candidate placement
locations, re-running the defender's functional tests after each placement.
A placement is accepted only when the TZ-infected circuit ``N''``

1. passes every defender pattern set (lines 3-8),
2. does not exceed the HT-free thresholds in *total power, each power
   component, and area* (lines 11-13), and
3. after optional dummy-gate padding, sits within tolerance of the
   thresholds so that neither an increase nor a suspicious decrease is
   measurable (Sec. IV.4).

Padding is evaluated incrementally: a :class:`~repro.power.analysis.PowerModel`
follows each batch of dummies or fillers instead of re-characterizing the
whole circuit.  This is exact.  A Sec. IV.4 dummy or filler reads only
primary inputs (or its own tie) and nothing reads it, so it changes no
existing net's mapping, probability or activity; only the new gates and the
load on the nets they read are re-costed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from ..power.analysis import PowerDelta, PowerModel, PowerReport, analyze
from ..power.library import CellLibrary
from ..prob.propagate import rare_nodes, signal_probabilities
from ..sim.equivalence import functional_test
from ..trojan.library import (
    TrojanDesign,
    default_trojan_library,
    insert_dummy_gates,
    insert_filler_cells,
)
from .salvage import SalvageResult


@dataclass(frozen=True)
class InsertionConfig:
    """Tolerances and search effort for Algorithm 2."""

    #: Allowed overshoot of any power component, as a fraction of the HT-free
    #: value (the paper demands ≈ 0; a sub-percent band absorbs model noise).
    rel_power_tolerance: float = 0.01
    #: Allowed area overshoot as a fraction of HT-free area.
    rel_area_tolerance: float = 0.01
    #: How many victim locations to try per design (paper's m).
    max_locations: int = 8
    #: How many rare nets to try as counter clock / trigger sources.
    max_trigger_sources: int = 4
    #: Rarity threshold used when picking trigger sources.
    trigger_rarity: float = 0.95
    #: The attacker's stealth budget: predicted trigger probability over the
    #: defender's whole test session must stay below this (paper: < 1e-4).
    pft_budget: float = 1e-5
    #: Pad with dummy gates when the differential is negative (paper IV.4).
    dummy_padding: bool = True
    #: Stop padding when the remaining area deficit is below this many GE.
    padding_target_ge: float = 4.0


@dataclass(frozen=True)
class PlacementAttempt:
    """One (design, victim, trigger) trial and its outcome."""

    design: str
    victim: str
    trigger_source: str
    outcome: str


@dataclass
class InsertionResult:
    """Output of Algorithm 2."""

    success: bool
    infected: Optional[Circuit]
    design: Optional[TrojanDesign]
    instance: object
    victim: Optional[str]
    power_infected: Optional[PowerReport]
    #: ΔP(TZ)/ΔA(TZ) = thresholds − infected (positive = under threshold).
    delta_tz: Optional[PowerDelta]
    dummy_gates: List[str] = field(default_factory=list)
    attempts: List[PlacementAttempt] = field(default_factory=list)


def rank_victims(circuit: Circuit, limit: int) -> List[str]:
    """Placement locations ranked by payload impact (fan-out cone size).

    The paper's case study corrupts the ALU carry-in — a net whose fan-out
    cone covers many outputs.  Nets already near-constant are excluded (a
    payload there would rarely matter).
    """
    probs = signal_probabilities(circuit)
    bits, cones = _fanout_cone_bits(circuit)
    outputs = 0
    for net in circuit.outputs:
        outputs |= bits[net]
    scored: List[Tuple[int, str]] = []
    for net in circuit.internal_nets():
        gate = circuit.gate(net)
        if gate.is_constant:
            continue
        p = probs[net]
        if p < 0.05 or p > 0.95:
            continue
        cone = cones[net]
        reach = (cone & outputs).bit_count()
        if reach == 0:
            continue
        scored.append((cone.bit_count() + 10 * reach, net))
    scored.sort(reverse=True)
    return [net for _, net in scored[:limit]]


def _fanout_cone_bits(circuit: Circuit) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Every net's own bit and fan-out cone (inclusive) as Python-int bitsets.

    One reverse-topological pass ORs each net's readers' cones into its own.
    A DFF reader sits before its inputs in topological order, so sequential
    circuits repeat the pass until no cone grows (loops through DFFs).
    """
    order = circuit.topological_order()
    bits = {net: 1 << position for position, net in enumerate(order)}
    cones = dict(bits)
    readers = [(net, circuit.fanout(net)) for net in reversed(order)]
    sequential = circuit.is_sequential
    changed = True
    while changed:
        changed = False
        for net, fanout in readers:
            cone = cones[net]
            for reader in fanout:
                cone |= cones[reader]
            if cone != cones[net]:
                cones[net] = cone
                changed = sequential
    return bits, cones


def rank_trigger_sources(
    circuit: Circuit,
    rarity: float,
    limit: int,
    edges_to_fire: int = 7,
    session_vectors: int = 300,
    pft_budget: float = 1e-5,
) -> List[str]:
    """Rare internal nets suitable as counter clocks / trigger inputs.

    Rarely-*activated* nets have tiny rising-edge probability, so the counter
    cannot saturate during functional testing (paper Sec. III-C: "inputs to
    generate the trigger are provided from rarely-activated nodes").  But a
    node that is *too* extreme is useless to the attacker as well — a counter
    that can never accumulate edges never fires.  The attacker therefore
    maximizes the edge rate subject to a stealth budget: predicted
    ``Pft = P[Binomial(session_vectors, p_edge) >= edges_to_fire]`` must stay
    below ``pft_budget``.  Sources are ranked by edge rate, fastest first,
    among those meeting the budget (falling back to the stealthiest nodes if
    none qualify).
    """
    from ..trojan.trigger import binomial_tail_at_least

    rare = rare_nodes(circuit, rarity)
    qualifying = []
    fallback = []
    for net, p_one in rare:
        p_edge = p_one * (1.0 - p_one)
        if p_edge <= 0.0:
            continue  # structurally constant: the counter would never tick
        pft = binomial_tail_at_least(session_vectors, p_edge, edges_to_fire)
        if pft <= pft_budget:
            qualifying.append((-p_edge, net))
        else:
            fallback.append((pft, net))
    qualifying.sort()
    fallback.sort()
    ranked = [net for _, net in qualifying] + [net for _, net in fallback]
    return ranked[:limit]


def insert_trojan_zero(
    salvage_result: SalvageResult,
    golden: Circuit,
    pattern_sets: Sequence[np.ndarray],
    thresholds: PowerReport,
    library: CellLibrary,
    designs: Optional[Sequence[TrojanDesign]] = None,
    config: Optional[InsertionConfig] = None,
    session_vectors: int = 300,
) -> InsertionResult:
    """Run Algorithm 2 on the salvaged circuit ``N'``.

    Parameters
    ----------
    salvage_result:
        Output of Algorithm 1 (provides ``N'`` and the salvaged budget).
    golden:
        The HT-free reference ``N`` for functional testing.
    thresholds:
        Power/area of ``N`` — the caps ``N''`` must not exceed.
    session_vectors:
        Length of the defender's full test session (known + bespoke vectors),
        used to budget the predicted trigger probability.
    """
    config = config or InsertionConfig()
    designs = list(designs) if designs is not None else default_trojan_library()
    modified = salvage_result.modified

    budget = thresholds.delta(salvage_result.power_after)
    victims = rank_victims(modified, config.max_locations)
    attempts: List[PlacementAttempt] = []
    tol_power = config.rel_power_tolerance
    tol_area = config.rel_area_tolerance

    for design in designs:
        edges_needed = (1 << design.size) - 1 if design.kind == "counter" else 1
        triggers = rank_trigger_sources(
            modified,
            config.trigger_rarity,
            config.max_trigger_sources,
            edges_to_fire=edges_needed,
            session_vectors=session_vectors,
            pft_budget=config.pft_budget,
        )
        est_area, est_leak = design.estimated_cost(library)
        # Pre-filter: the HT may consume the salvaged area plus the allowed
        # tolerance band; anything bigger is guaranteed to bust the cap.
        area_headroom_ge = budget.area_ge + tol_area * thresholds.area_ge
        if est_area / library.ge_area_um2 > area_headroom_ge:
            attempts.append(
                PlacementAttempt(design.name, "-", "-", "skipped: exceeds salvaged budget")
            )
            continue
        for victim in victims:
            for trigger_source in triggers or ["-"]:
                if trigger_source == "-":
                    break
                if trigger_source == victim:
                    continue
                infected = modified.copy(f"{golden.name}_tz")
                try:
                    instance = design.instantiate(
                        infected, victim, [trigger_source], prefix="tz"
                    )
                except ValueError as exc:
                    attempts.append(
                        PlacementAttempt(design.name, victim, trigger_source, f"error: {exc}")
                    )
                    continue
                if not functional_test(infected, golden, pattern_sets):
                    attempts.append(
                        PlacementAttempt(
                            design.name, victim, trigger_source,
                            "rejected: defender tests detected the HT",
                        )
                    )
                    continue
                report = analyze(infected, library)
                delta = thresholds.delta(report)
                if _exceeds(delta, thresholds, tol_power, tol_area):
                    attempts.append(
                        PlacementAttempt(
                            design.name, victim, trigger_source,
                            "rejected: exceeds power/area threshold",
                        )
                    )
                    continue
                dummies: List[str] = []
                if config.dummy_padding:
                    report, delta, dummies = _pad_with_dummies(
                        infected, thresholds, library, config
                    )
                    if dummies and not functional_test(infected, golden, pattern_sets):
                        attempts.append(
                            PlacementAttempt(
                                design.name, victim, trigger_source,
                                "rejected: padding broke functional tests",
                            )
                        )
                        continue
                attempts.append(
                    PlacementAttempt(design.name, victim, trigger_source, "accepted")
                )
                return InsertionResult(
                    success=True,
                    infected=infected,
                    design=design,
                    instance=instance,
                    victim=victim,
                    power_infected=report,
                    delta_tz=delta,
                    dummy_gates=dummies,
                    attempts=attempts,
                )
    return InsertionResult(
        success=False,
        infected=None,
        design=None,
        instance=None,
        victim=None,
        power_infected=None,
        delta_tz=None,
        attempts=attempts,
    )


def _exceeds(
    delta: PowerDelta, thresholds: PowerReport, tol_power: float, tol_area: float
) -> bool:
    """True when N'' exceeds any threshold beyond tolerance (delta = N - N'')."""
    return (
        delta.total_uw < -tol_power * thresholds.total_uw
        or delta.dynamic_uw < -tol_power * max(thresholds.dynamic_uw, 1e-9)
        or delta.leakage_uw < -tol_power * max(thresholds.leakage_uw, 1e-9)
        or delta.area_ge < -tol_area * thresholds.area_ge
    )


def _pad_with_dummies(
    infected: Circuit,
    thresholds: PowerReport,
    library: CellLibrary,
    config: InsertionConfig,
    max_dummies: int = 512,
) -> Tuple[PowerReport, PowerDelta, List[str]]:
    """Greedily pad the differential toward ≈ 0 from below.

    Two padding media, applied in order:

    1. *dummy gates* on the primary inputs — add area, leakage, and dynamic
       power, used while all three have headroom;
    2. *filler cells* (tie-fed, non-switching) — add area and a little
       leakage only, used once dynamic/total power is at the cap but area is
       still visibly short (paper observation Z).

    Each batch is costed by a :class:`PowerModel` that follows the edit
    (:meth:`PowerModel.add_gates`) rather than by re-characterizing the
    whole circuit; its reports equal a fresh :func:`analyze` exactly.
    """
    added: List[str] = []
    model = PowerModel(infected, library)
    report = model.report()
    delta = thresholds.delta(report)
    use_filler = False
    while len(added) < max_dummies and delta.area_ge > config.padding_target_ge:
        if use_filler or delta.total_uw <= 0 or delta.dynamic_uw <= 0:
            use_filler = True
            batch = insert_filler_cells(infected, 4, prefix=f"fill{len(added)}_")
        else:
            batch = insert_dummy_gates(infected, 1, prefix=f"dummy{len(added)}_")
        trial = model.copy()
        trial.add_gates(infected, batch)
        trial_report = trial.report()
        trial_delta = thresholds.delta(trial_report)
        if _exceeds(trial_delta, thresholds, config.rel_power_tolerance,
                    config.rel_area_tolerance):
            # Went over a cap — undo the last batch (the model never saw it).
            infected.remove_gates(batch)
            if use_filler:
                break  # even non-switching padding no longer fits
            use_filler = True  # dummies too hot; retry with fillers
            continue
        added.extend(batch)
        model, report, delta = trial, trial_report, trial_delta
    return report, delta, added

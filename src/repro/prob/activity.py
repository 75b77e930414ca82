"""Switching-activity (transition-density) computation.

TrojanZero is *switching-activity-aware*: both candidate selection and the
dynamic-power model consume per-net transition probabilities.  Under the
standard temporal-independence assumption, the probability that a net toggles
between two consecutive random vectors is::

    alpha(s) = 2 · P(s=1) · P(s=0)

For DFF-based ripple-counter stages the level probability is 0.5 but the
*toggle* rate halves per stage and is bounded by the clock net's own activity;
:func:`switching_activity` handles that case structurally.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..netlist.circuit import Circuit
from ..netlist.gate import Gate, GateType
from .propagate import signal_probabilities


def transition_probability(p_one: float) -> float:
    """alpha = 2 p (1-p): toggle probability of an independent net per cycle."""
    return 2.0 * p_one * (1.0 - p_one)


def switching_activity(
    circuit: Circuit,
    pi_probabilities: Optional[Mapping[str, float]] = None,
    probabilities: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Per-net toggle probability per applied vector.

    Combinational nets use ``2 p (1-p)``.  DFF outputs use the ripple-counter
    relation: a stage toggles only on a rising edge of its clock net, so its
    activity is half the clock net's activity (a rising edge is half of all
    toggles, and each edge flips the state exactly once for the
    ``d = NOT(q)`` toggle configuration).
    """
    probs = dict(probabilities) if probabilities is not None else signal_probabilities(
        circuit, pi_probabilities
    )
    activity: Dict[str, float] = {}
    order = circuit.topological_order()
    # Two passes so DFF chains clocked by other DFFs settle (ripple counters).
    for _ in range(2):
        for net in order:
            activity[net] = gate_activity(circuit.gate(net), probs, activity)
    return activity


def gate_activity(
    gate: Gate, probs: Mapping[str, float], activity: Mapping[str, float]
) -> float:
    """Toggle probability of ``gate``'s output given the nets computed so far."""
    if gate.gate_type is GateType.DFF:
        clk = gate.inputs[1]
        clk_activity = activity.get(clk, transition_probability(probs.get(clk, 0.5)))
        return 0.5 * clk_activity
    if gate.gate_type in (GateType.NOT, GateType.BUFF):
        # Inverters/buffers toggle exactly when their input toggles —
        # essential for ripple-counter chains, where the level-based
        # 2p(1-p) estimate would wrongly reset the activity to 0.5.
        src = gate.inputs[0]
        return activity.get(src, transition_probability(probs.get(src, 0.5)))
    if gate.is_constant:
        return 0.0
    return transition_probability(probs[gate.name])

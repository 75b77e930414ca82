"""Topological signal-probability propagation.

Implements the paper's probability computation (Algorithm 1 lines 2-3):
primary inputs are assigned P(=1) = 0.5 ("similar to other approaches in this
field, we also assume that the signal probability at each primary input is
0.5") and every gate's output probability is derived from its inputs via the
gate library in :mod:`repro.prob.gates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..netlist.circuit import Circuit
from ..netlist.gate import Gate, GateType
from .gates import gate_output_probability

#: Default primary-input one-probability, per the paper.
DEFAULT_PI_PROBABILITY = 0.5


@dataclass(frozen=True)
class NodeProbability:
    """Signal probabilities at one node (paper notation: P(Ni=0), P(Ni=1))."""

    net: str
    p_one: float

    @property
    def p_zero(self) -> float:
        return 1.0 - self.p_one

    def extremity(self) -> float:
        """max(P0, P1) — how close the node sits to a constant."""
        return max(self.p_one, self.p_zero)


def signal_probabilities(
    circuit: Circuit,
    pi_probabilities: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """P(net = 1) for every net, PIs defaulting to 0.5.

    DFF outputs are given their steady-state approximation: for the ripple
    counter the paper uses, each stage divides toggle frequency by two but the
    *level* probability of a counter bit is 0.5 — unless it is never clocked,
    which trigger analysis handles separately.  A fixed point over the
    (possibly cyclic through DFFs) state is computed by iteration.
    """
    overrides = dict(pi_probabilities or {})
    probs: Dict[str, float] = {}
    order = circuit.topological_order()

    dffs = [g.name for g in circuit.gates() if g.gate_type is GateType.DFF]
    # Initial guess for sequential nodes.
    for dff in dffs:
        probs[dff] = 0.5

    def sweep() -> float:
        """One topological pass; returns max change on DFF nodes."""
        for net in order:
            gate = circuit.gate(net)
            if gate.gate_type is GateType.INPUT:
                probs[net] = overrides.get(net, DEFAULT_PI_PROBABILITY)
            elif gate.gate_type is GateType.DFF:
                continue  # updated below from its d input
            else:
                probs[net] = gate_probability(gate, probs)
        delta = 0.0
        for dff in dffs:
            d_net = circuit.gate(dff).inputs[0]
            new = probs.get(d_net, 0.5)
            delta = max(delta, abs(new - probs[dff]))
            probs[dff] = new
        return delta

    if dffs:
        for _ in range(64):
            if sweep() < 1e-12:
                break
    else:
        sweep()
    return probs


def gate_probability(gate: Gate, probs: Mapping[str, float]) -> float:
    """P(output = 1) of a combinational gate from its inputs' probabilities."""
    return gate_output_probability(gate.gate_type, [probs[i] for i in gate.inputs])


def node_probabilities(
    circuit: Circuit,
    pi_probabilities: Optional[Mapping[str, float]] = None,
) -> Dict[str, NodeProbability]:
    """Convenience wrapper returning :class:`NodeProbability` records."""
    return {
        net: NodeProbability(net, p)
        for net, p in signal_probabilities(circuit, pi_probabilities).items()
    }


def rare_nodes(
    circuit: Circuit,
    threshold: float,
    pi_probabilities: Optional[Mapping[str, float]] = None,
    include_inputs: bool = False,
) -> List[Tuple[str, float]]:
    """Nets whose signal probability is ≥ ``threshold`` for either polarity.

    This is the candidate-gate selection of Algorithm 1 lines 4-10: a node
    joins the candidate set C if P(Ni=0) ≥ Pth (set X) or P(Ni=1) ≥ Pth
    (set Y).  Returns ``(net, p_one)`` sorted by extremity, most extreme first.
    """
    if not 0.5 < threshold <= 1.0:
        raise ValueError(f"Pth must be in (0.5, 1.0], got {threshold}")
    probs = signal_probabilities(circuit, pi_probabilities)
    found: List[Tuple[str, float]] = []
    for net, p_one in probs.items():
        gate = circuit.gate(net)
        if gate.is_input and not include_inputs:
            continue
        if gate.is_constant:
            continue
        if p_one >= threshold or (1.0 - p_one) >= threshold:
            found.append((net, p_one))
    found.sort(key=lambda item: -max(item[1], 1.0 - item[1]))
    return found

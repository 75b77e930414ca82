"""Trigger-probability analysis: the paper's Pft and Pu metrics.

``Pft`` (Table I, last column) is the probability that the inserted
*targeted* HT fires at least once during the defender's random functional
testing.  For the counter Trojan clocked by a host net with per-vector
rising-edge probability ``p_edge``, the counter must collect ``2**n - 1``
rising edges within the test session of ``T`` vectors, so::

    Pft = P[ Binomial(T, p_edge) >= 2**n - 1 ]

Both the analytic tail and a Monte-Carlo estimate over full sequential
simulation are provided; the latter validates the independence assumptions.

``Pu`` (Eq. 1) is the exposure probability of the *untargeted* collateral
modifications introduced by salvaging: ``Pu = Nu / 2**n_inputs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..netlist.circuit import Circuit
from ..prob.activity import switching_activity
from ..prob.propagate import signal_probabilities
from ..sim.seqsim import SequentialSimulator
from .counter import CounterTrojanInstance


def rising_edge_probability(
    circuit: Circuit,
    net: str,
    probabilities: Optional[Mapping[str, float]] = None,
) -> float:
    """Per-vector probability of a 0→1 transition on ``net``.

    Under temporal independence a rising edge is half of all toggles:
    ``p_edge = P(prev=0) · P(next=1) = p(1-p)`` which equals half the
    transition probability ``2p(1-p)``.
    """
    probs = dict(probabilities) if probabilities is not None else signal_probabilities(circuit)
    p = probs[net]
    return p * (1.0 - p)


def binomial_tail_at_least(n: int, p: float, k: int) -> float:
    """P[Binomial(n, p) >= k] computed stably in log space."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0 if n >= k else 0.0
    total = 0.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    mode = int((n + 1) * p)  # terms increase up to the mode, then decrease
    for i in range(k, n + 1):
        log_term = (
            math.lgamma(n + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * log_p
            + (n - i) * log_q
        )
        total += math.exp(log_term)
        if i > mode and log_term < -60:
            break  # past the mode and negligible: remainder cannot matter
    return min(1.0, total)


def analytic_pft(
    circuit: Circuit,
    instance: CounterTrojanInstance,
    n_test_vectors: int,
    probabilities: Optional[Mapping[str, float]] = None,
) -> float:
    """Analytic trigger probability of a counter HT over a test session."""
    p_edge = rising_edge_probability(circuit, instance.clock_source, probabilities)
    return binomial_tail_at_least(n_test_vectors, p_edge, instance.states_to_fire)


def monte_carlo_pft(
    circuit: Circuit,
    instance: CounterTrojanInstance,
    n_test_vectors: int,
    n_sessions: int = 256,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Monte-Carlo Pft: fraction of simulated random test sessions that fire.

    Simulates the infected circuit sequentially on the compiled engine,
    sessions packed 64 per word, so ripple effects and signal correlations
    that the analytic model ignores are captured.  Only the trigger net's
    fan-in is computed: its rows that read only the current vector in one
    wide pass per session block, and the counter with what it reaches
    stepped vector by vector (see :mod:`repro.sim.seqsim`).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n_inputs = len(circuit.inputs)
    sim = SequentialSimulator(circuit)
    fired = 0
    batch = 64
    sessions_done = 0
    while sessions_done < n_sessions:
        count = min(batch, n_sessions - sessions_done)
        sequences = (rng.random((count, n_test_vectors, n_inputs)) < 0.5).astype(np.uint8)
        trig = sim.run_sequences_nets(sequences, [instance.trigger_net])[:, :, 0]
        fired += int(trig.any(axis=1).sum())
        sessions_done += count
    return fired / n_sessions


@dataclass(frozen=True)
class TriggerReport:
    """Pft summary for one inserted counter HT."""

    clock_source: str
    p_edge: float
    counter_bits: int
    edges_to_fire: int
    test_vectors: int
    pft_analytic: float
    pft_monte_carlo: Optional[float] = None


def trigger_report(
    circuit: Circuit,
    instance: CounterTrojanInstance,
    n_test_vectors: int,
    monte_carlo_sessions: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> TriggerReport:
    """Full trigger characterization (analytic, optionally MC-validated)."""
    probs = signal_probabilities(circuit)
    p_edge = rising_edge_probability(circuit, instance.clock_source, probs)
    analytic = binomial_tail_at_least(
        n_test_vectors, p_edge, instance.states_to_fire
    )
    mc = None
    if monte_carlo_sessions > 0:
        mc = monte_carlo_pft(
            circuit, instance, n_test_vectors, monte_carlo_sessions, rng
        )
    return TriggerReport(
        clock_source=instance.clock_source,
        p_edge=p_edge,
        counter_bits=instance.n_bits,
        edges_to_fire=instance.states_to_fire,
        test_vectors=n_test_vectors,
        pft_analytic=analytic,
        pft_monte_carlo=mc,
    )

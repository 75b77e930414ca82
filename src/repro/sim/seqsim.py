"""Cycle-accurate sequential simulation for Trojan-infected circuits.

The TrojanZero counter trigger (Fig. 4) is an *asynchronous* ripple counter:
each DFF is clocked by a circuit net (the rare trigger node) or by the
previous stage's output — no global clock is added to the host circuit.  The
simulator therefore works edge-driven per applied input vector:

1. settle the combinational logic with the current flip-flop states,
2. find DFFs whose clock net saw a rising edge (vs. the previous settle),
3. update those states with their settled ``d`` values,
4. repeat — a state change may ripple a new edge into the next stage —
   until no edges remain (bounded by #DFFs + 2 iterations).

Many independent input *sequences* are simulated in parallel, packed 64 per
uint64 word, which makes Monte-Carlo trigger-probability estimation cheap.

Engine
------
:class:`SequentialSimulator` runs on the compiled levelized core of
:mod:`repro.sim.compiled`: the circuit compiles once into a ``(n_nets,
n_words)`` value matrix plus a per-(level, type, arity) group schedule in
which every DFF *output* is a source row alongside the PIs.  The compiled
schedule is cached on the circuit (and in the structural-fingerprint cache),
so every Monte-Carlo session, functional test and trace block over the same
netlist shares one compile.

Split stepping: a run only computes what its watched nets need.
:meth:`~repro.sim.compiled.CompiledCircuit.sequential_plan` takes the fan-in
closure of the watched rows (crossing each DFF through ``d`` and ``clk``)
and splits it into *free* rows, a function of the current vector alone, and
*state* rows, which have a DFF in their fan-in.
:meth:`SequentialSimulator.run_sequences_nets` evaluates the free rows once
for every (step, word) column in one wide matrix, then steps only the state
rows vector by vector, with the ripple loop above on the DFFs inside the
needed set.  The ripple cap stays at the whole circuit's #DFFs + 2, so an
oscillating DFF loop stops at the same pass.  A combinational circuit, or a
watched set no DFF reaches, is a single wide pass.

Batched extraction: the whole ``(n_seqs, n_steps, n_inputs)`` sequence block
is packed with one ``np.packbits`` call, and the watched rows of each wide
chunk are unpacked in one ``np.unpackbits`` call — no per-net, per-step
Python bit extraction anywhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from .bitsim import pack_patterns, unpack_patterns
from .compiled import CompiledCircuit, SequentialPlan, _evaluate_group, compile_circuit

#: Word budget for the wide ``(n_nets, steps * n_words)`` matrix of one step
#: chunk in :meth:`SequentialSimulator.run_sequences_nets` (the watched-row
#: unpack of a chunk is at most ~64x this many bytes).
_CHUNK_WORD_BUDGET = 1 << 19


def _step_state(
    view: np.ndarray,
    plan: SequentialPlan,
    state: np.ndarray,
    prev_clk: Optional[np.ndarray],
    max_passes: int,
) -> np.ndarray:
    """Apply one vector to the state rows of ``view``; returns the clocks.

    ``view`` is one step's ``(n_nets, n_words)`` column slice with its free
    rows already evaluated; ``state`` is the needed DFFs' state (mutated in
    place); ``prev_clk`` is the previous step's clock snapshot, or ``None``
    for the first vector, which only sets the baseline.  Then up to
    ``max_passes`` ripple passes of (detect rising edges against the
    snapshot, latch ``d`` where one fired, snapshot the clocks, re-settle).
    """
    view[plan.dff_idx] = state
    for group in plan.state:
        _evaluate_group(group, view)
    if prev_clk is not None:
        for _ in range(max_passes):
            clk = view[plan.dff_clk_idx]
            edge = ~prev_clk & clk
            prev_clk = clk  # fancy-indexed gather is already a fresh array
            if not edge.any():
                break
            state &= ~edge
            state |= view[plan.dff_d_idx] & edge
            view[plan.dff_idx] = state
            for group in plan.state:
                _evaluate_group(group, view)
    return view[plan.dff_clk_idx]


class SequentialSimulator:
    """Edge-driven simulator for circuits that may contain DFFs.

    Pure combinational circuits are handled too (they simply have no state),
    so functional-testing code can treat N, N' and N'' uniformly.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._compiled: CompiledCircuit = compile_circuit(circuit)

    @property
    def dff_nets(self) -> Tuple[str, ...]:
        return self._compiled.dff_names

    # ------------------------------------------------------------------
    # batched sequence APIs
    # ------------------------------------------------------------------
    def _check_sequences(self, sequences: np.ndarray) -> np.ndarray:
        sequences = np.asarray(sequences)
        if sequences.ndim != 3:
            raise ValueError(f"sequences must be 3-D, got shape {sequences.shape}")
        if sequences.shape[2] != len(self.circuit.inputs):
            raise ValueError(
                f"expected {len(self.circuit.inputs)} inputs, got {sequences.shape[2]}"
            )
        return sequences

    def run_sequences_nets(
        self, sequences: np.ndarray, nets: Sequence[str]
    ) -> np.ndarray:
        """Simulate ``(n_seqs, n_steps, n_inputs)`` watching only ``nets``.

        Returns ``(n_seqs, n_steps, len(nets))`` uint8; every sequence starts
        from all-zero flip-flop state.  This is the batched workhorse behind
        :meth:`run_sequences`, :meth:`run_sequence_tracking`, Monte-Carlo Pft
        estimation, and empirical toggle rates.  Only the rows the watched
        nets need are computed: free rows in one wide pass per step chunk,
        state rows stepped per vector (see the module docstring).
        """
        sequences = self._check_sequences(sequences)
        n_seqs, n_steps, n_inputs = sequences.shape
        compiled = self._compiled
        rows = np.array([compiled.index[net] for net in nets], dtype=np.intp)
        out = np.zeros((n_seqs, n_steps, len(nets)), dtype=np.uint8)
        if n_steps == 0 or n_seqs == 0 or rows.size == 0:
            return out
        plan = compiled.sequential_plan(tuple(rows.tolist()))
        n_words = (n_seqs + 63) // 64
        # One packbits pass for the whole block: steps fold into the signal
        # axis, giving (n_steps, n_inputs, n_words) packed PI words.
        packed_steps = pack_patterns(
            sequences.reshape(n_seqs, n_steps * n_inputs)
        ).reshape(n_steps, n_inputs, n_words)
        state = np.zeros((plan.dff_idx.size, n_words), dtype=np.uint64)
        prev_clk: Optional[np.ndarray] = None
        max_passes = compiled.dff_idx.size + 2
        chunk = max(1, _CHUNK_WORD_BUDGET // (compiled.n_nets * n_words))
        t = 0
        while t < n_steps:
            span = min(chunk, n_steps - t)
            # Column k * n_words + w holds word w of step t + k.
            values = compiled.new_matrix(span * n_words)
            if n_inputs:
                values[compiled.input_idx] = (
                    packed_steps[t : t + span]
                    .transpose(1, 0, 2)
                    .reshape(n_inputs, span * n_words)
                )
            for group in plan.free:
                _evaluate_group(group, values)
            if plan.dff_idx.size:
                for k in range(span):
                    view = values[:, k * n_words : (k + 1) * n_words]
                    prev_clk = _step_state(view, plan, state, prev_clk, max_passes)
            watched = (
                values[rows]
                .reshape(rows.size, span, n_words)
                .transpose(1, 0, 2)
                .reshape(span * rows.size, n_words)
            )
            unpacked = unpack_patterns(watched, n_seqs)
            out[:, t : t + span, :] = unpacked.reshape(n_seqs, span, rows.size)
            t += span
        return out

    def run_sequences(self, sequences: np.ndarray) -> np.ndarray:
        """Simulate ``(n_seqs, n_steps, n_inputs)``; returns outputs of same rank.

        Returns ``(n_seqs, n_steps, n_outputs)`` uint8.
        """
        return self.run_sequences_nets(sequences, self.circuit.outputs)

    def run_sequence_tracking(
        self, sequence: np.ndarray, watch: List[str]
    ) -> Dict[str, np.ndarray]:
        """Simulate a single ``(n_steps, n_inputs)`` sequence, recording ``watch`` nets.

        Returns net -> ``(n_steps,)`` uint8 trace.  Used for trigger analysis
        and the case-study example.  All watched nets are extracted in one
        batched unpack (via :meth:`run_sequences_nets`), not one bit per net
        per step.
        """
        sequence = np.atleast_2d(np.asarray(sequence))
        traces = self.run_sequences_nets(sequence[np.newaxis], list(watch))[0]
        return {net: traces[:, i].copy() for i, net in enumerate(watch)}

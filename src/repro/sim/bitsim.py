"""Bit-parallel combinational logic simulation.

Patterns are packed 64 per ``uint64`` word, so one pass over the netlist in
topological order simulates 64 input vectors at once.  This is the workhorse
behind functional testing (ModelSim substitute), fault simulation, Monte-Carlo
probability estimation, and trigger-probability measurement.

The public entry points accept/return numpy arrays:

* ``patterns``: ``(num_patterns, num_inputs)`` array of 0/1 (any integer dtype)
* results: dict net -> packed words, or ``(num_patterns, num_outputs)`` array
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Sequence

import numpy as np

from ..netlist.circuit import Circuit, NetlistError
from .compiled import (
    ALL_ONES,
    FULL_MASK,
    WORD_BITS,
    CompiledCircuit,
    compile_circuit,
)

# The 64-bit word constants live in ``repro.sim.compiled``; they are
# re-exported here as the stable import point for the rest of the package.
__all__ = [
    "ALL_ONES",
    "FULL_MASK",
    "WORD_BITS",
    "BitSimulator",
    "pack_patterns",
    "unpack_patterns",
    "toggle_matrix",
    "simulate",
    "random_patterns",
    "exhaustive_patterns",
]

_LITTLE_ENDIAN = sys.byteorder == "little"


def pack_patterns(patterns: np.ndarray) -> np.ndarray:
    """Pack ``(n_patterns, n_signals)`` 0/1 rows into ``(n_signals, n_words)`` uint64.

    Bit ``k`` of word ``w`` for signal ``s`` holds pattern ``w*64 + k``.
    """
    patterns = np.asarray(patterns)
    if patterns.ndim != 2:
        raise ValueError(f"patterns must be 2-D, got shape {patterns.shape}")
    n_patterns, n_signals = patterns.shape
    n_words = (n_patterns + WORD_BITS - 1) // WORD_BITS
    bits = np.zeros((n_signals, n_words * WORD_BITS), dtype=np.uint8)
    if n_patterns:
        bits[:, :n_patterns] = (patterns != 0).T
    packed_bytes = np.packbits(bits, axis=-1, bitorder="little")
    if _LITTLE_ENDIAN:
        return packed_bytes.view(np.uint64)
    # Big-endian fallback: assemble words explicitly (byte b is bits 8b..8b+7).
    words = packed_bytes.astype(np.uint64).reshape(n_signals, n_words, 8)
    shifts = (np.uint64(8) * np.arange(8, dtype=np.uint64))[np.newaxis, np.newaxis, :]
    return np.bitwise_or.reduce(words << shifts, axis=-1)


def unpack_patterns(packed: np.ndarray, n_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_patterns`: returns ``(n_patterns, n_signals)`` uint8."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    n_signals, n_words = packed.shape
    if _LITTLE_ENDIAN:
        as_bytes = packed.view(np.uint8)
    else:
        shifts = (np.uint64(8) * np.arange(8, dtype=np.uint64))[np.newaxis, np.newaxis, :]
        as_bytes = (
            ((packed[:, :, np.newaxis] >> shifts) & np.uint64(0xFF))
            .astype(np.uint8)
            .reshape(n_signals, n_words * 8)
        )
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[:, :n_patterns].T.copy()


def toggle_matrix(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """XOR of consecutive entries of a 0/1 array along ``axis``.

    The shared toggle kernel behind empirical toggle-rate estimation
    (:func:`repro.prob.montecarlo.mc_toggle_rates`) and the side-channel
    trace generator (:mod:`repro.traces.generator`): one batched pass over
    *all* watched signals at once instead of a per-net Python loop.  For an
    axis of length ``n`` the result has length ``n - 1`` — entry ``t`` is 1
    where the signal changed between steps ``t`` and ``t + 1``.
    """
    values = np.asarray(values)
    ahead = [slice(None)] * values.ndim
    behind = [slice(None)] * values.ndim
    ahead[axis] = slice(1, None)
    behind[axis] = slice(None, -1)
    return np.bitwise_xor(values[tuple(ahead)], values[tuple(behind)])


class BitSimulator:
    """Reusable bit-parallel simulator for a (combinational view of a) circuit.

    Sequential gates are not allowed here; use :class:`repro.sim.seqsim` for
    Trojan-infected (DFF-bearing) circuits.

    Internally this is a thin facade over the compiled levelized engine of
    :mod:`repro.sim.compiled`; the compiled schedule is cached on the circuit,
    so constructing many simulators for the same circuit is cheap.
    """

    def __init__(self, circuit: Circuit) -> None:
        if circuit.is_sequential:
            raise NetlistError(
                f"{circuit.name!r} contains DFFs; use SequentialSimulator"
            )
        self.circuit = circuit
        self._compiled: CompiledCircuit = compile_circuit(circuit)
        self._order = self._compiled.order

    def run_packed(self, packed_inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Simulate on packed words.  ``packed_inputs`` maps PI name -> words."""
        missing = [pi for pi in self.circuit.inputs if pi not in packed_inputs]
        if missing:
            raise ValueError(f"missing input values for {missing[:5]}")
        n_words = len(next(iter(packed_inputs.values()))) if packed_inputs else 1
        values = self._compiled.new_matrix(n_words)
        for i, pi in enumerate(self.circuit.inputs):
            values[self._compiled.input_idx[i]] = packed_inputs[pi]
        self._compiled.run_matrix(values)
        # A patched/shared compiled form may carry rows for dead-stripped
        # nets; report only nets the circuit actually has.
        return {
            net: values[i]
            for i, net in enumerate(self._order)
            if net in self.circuit
        }

    def _run_matrix(self, patterns: np.ndarray) -> np.ndarray:
        """Pack ``patterns`` and evaluate; returns the full value matrix."""
        return self._compiled.simulate_packed(pack_patterns(patterns))

    def run(self, patterns: np.ndarray) -> np.ndarray:
        """Simulate ``(n_patterns, n_inputs)`` rows; returns ``(n_patterns, n_outputs)``.

        Input columns follow ``circuit.inputs`` order; output columns follow
        ``circuit.outputs`` order.
        """
        patterns = np.atleast_2d(np.asarray(patterns))
        n_patterns = patterns.shape[0]
        values = self._run_matrix(patterns)
        return unpack_patterns(values[self._compiled.output_idx], n_patterns)

    def run_full(self, patterns: np.ndarray) -> Dict[str, np.ndarray]:
        """Like :meth:`run` but returns every net, unpacked, keyed by name."""
        patterns = np.atleast_2d(np.asarray(patterns))
        n_patterns = patterns.shape[0]
        values = self._run_matrix(patterns)
        unpacked = unpack_patterns(values, n_patterns)
        return {
            net: unpacked[:, i]
            for i, net in enumerate(self._order)
            if net in self.circuit
        }

    def run_nets(self, patterns: np.ndarray, nets: Sequence[str]) -> np.ndarray:
        """Simulate and unpack only ``nets``: returns ``(n_patterns, len(nets))``.

        Cheaper than :meth:`run_full` when only a few of the circuit's nets
        are of interest (rare-node hit counting, leakage state factors, ...).
        """
        patterns = np.atleast_2d(np.asarray(patterns))
        n_patterns = patterns.shape[0]
        values = self._run_matrix(patterns)
        rows = np.array([self._compiled.index[net] for net in nets], dtype=np.intp)
        return unpack_patterns(values[rows], n_patterns)


def simulate(circuit: Circuit, patterns: np.ndarray) -> np.ndarray:
    """One-shot convenience wrapper around :class:`BitSimulator`."""
    return BitSimulator(circuit).run(patterns)


def random_patterns(
    n_patterns: int,
    n_inputs: int,
    rng: Optional[np.random.Generator] = None,
    p_one: float = 0.5,
) -> np.ndarray:
    """Random 0/1 pattern block, optionally biased toward 1 with ``p_one``.

    With no ``rng`` the block is drawn from a fixed-seed generator — library
    code never draws fresh OS entropy (seed discipline, ``repro lint``
    RPR102); pass a seeded Generator for independent draws.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return (rng.random((n_patterns, n_inputs)) < p_one).astype(np.uint8)


def exhaustive_patterns(n_inputs: int) -> np.ndarray:
    """All ``2**n_inputs`` patterns (careful: exponential; for small blocks)."""
    if n_inputs > 22:
        raise ValueError(f"exhaustive simulation of {n_inputs} inputs is infeasible")
    if n_inputs == 0:
        return np.zeros((1, 0), dtype=np.uint8)  # one empty assignment
    count = 1 << n_inputs
    idx = np.arange(count, dtype=np.uint64)
    cols = [(idx >> np.uint64(b)) & np.uint64(1) for b in range(n_inputs)]
    return np.stack(cols, axis=1).astype(np.uint8)

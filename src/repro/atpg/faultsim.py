"""Bit-parallel single-stuck-at fault simulation with fault dropping.

The production path runs on the compiled levelized engine of
:mod:`repro.sim.compiled`: the good circuit is simulated once for the whole
pattern set as a ``(n_nets, n_words)`` uint64 matrix, and each fault is
injected by forcing its row to the stuck value and re-evaluating only the
precomputed fanout-cone sub-schedule.  Detection is the OR over the cone's
primary-output rows of ``faulty XOR good``, so all patterns are judged in one
shot per fault (no per-64-pattern blocking, no Python-int bit twiddling).

This powers (a) the ATPG outer loop (drop every fault a fresh PODEM vector
detects), (b) coverage reporting, and (c) the reproduction's analysis of
*which* stuck-at faults the defender's TP set leaves uncovered — the holes
TrojanZero's removals hide in.

The pre-compiled implementation (64 patterns per arbitrary-precision Python
int, one block at a time) is retained as :func:`reference_fault_sim` for
differential testing and before/after benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gate import GateType
from ..sim.bitsim import ALL_ONES, FULL_MASK, WORD_BITS, pack_patterns, tail_mask
from ..sim.compiled import CompiledCircuit, compile_circuit
from .fault import StuckAtFault
from .ppsfp import ppsfp_detections

#: ``mode="auto"`` switches to PPSFP at this many faults (and > 64 patterns):
#: below it, the pre-drop word walk wins on constant factors.
PPSFP_MIN_FAULTS = 16


def _blocks(patterns: np.ndarray, inputs: Sequence[str]) -> Iterable[Tuple[Dict[str, int], int, int]]:
    """Yield (pi -> packed int, n_patterns_in_block, block_start) per 64-row block."""
    patterns = np.atleast_2d(np.asarray(patterns))
    n = patterns.shape[0]
    for start in range(0, n, WORD_BITS):
        chunk = patterns[start : start + WORD_BITS]
        packed = pack_patterns(chunk)  # (n_inputs, 1) — vectorized, no bit loop
        words = {pi: int(packed[col, 0]) for col, pi in enumerate(inputs)}
        yield words, chunk.shape[0], start


def _evaluate_packed_int(gate_type: GateType, ins: List[int], mask: int) -> int:
    if gate_type is GateType.AND or gate_type is GateType.NAND:
        acc = ins[0]
        for w in ins[1:]:
            acc &= w
        return (acc ^ mask) if gate_type is GateType.NAND else acc
    if gate_type is GateType.OR or gate_type is GateType.NOR:
        acc = ins[0]
        for w in ins[1:]:
            acc |= w
        return (acc ^ mask) if gate_type is GateType.NOR else acc
    if gate_type is GateType.XOR or gate_type is GateType.XNOR:
        acc = ins[0]
        for w in ins[1:]:
            acc ^= w
        return (acc ^ mask) if gate_type is GateType.XNOR else acc
    if gate_type is GateType.NOT:
        return ins[0] ^ mask
    if gate_type is GateType.BUFF:
        return ins[0]
    if gate_type is GateType.MUX:
        d0, d1, sel = ins
        return (d0 & (sel ^ mask)) | (d1 & sel)
    raise NetlistError(f"cannot fault-simulate gate type {gate_type}")


@dataclass
class FaultSimResult:
    """Outcome of simulating a fault set against a pattern set."""

    detected: Dict[StuckAtFault, int] = field(default_factory=dict)
    undetected: List[StuckAtFault] = field(default_factory=list)
    patterns_applied: int = 0

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0


class FaultSimulator:
    """Cone-restricted, matrix-based stuck-at fault simulator."""

    def __init__(self, circuit: Circuit, backend=None) -> None:
        if circuit.is_sequential:
            raise NetlistError("fault simulation supports combinational circuits only")
        self.circuit = circuit
        self._compiled: CompiledCircuit = compile_circuit(circuit, backend)

    def _detect_mask(self, site: int, stuck: int, good: List[int], mask: int) -> int:
        """Python-int cone walk: bit *p* set iff pattern *p* detects the fault.

        ``good`` holds each row's good values as one int of any width (bit
        *p* = pattern *p*) and ``mask`` has one bit per pattern; ``stuck`` is
        ``mask`` or 0.  Per-gate Python int ops beat per-group numpy dispatch
        on the narrow pattern sets ATPG produces, so the compiled engine only
        computes the good values and the cone row order here.
        """
        cc = self._compiled
        if good[site] == stuck:
            return 0  # never excited by these patterns
        faulty: Dict[int, int] = {site: stuck}
        detect = 0
        for row in cc.cone_rows_at(site):
            gate_type, ins = cc.node[row]
            if faulty.keys().isdisjoint(ins):
                continue  # no input carries the fault effect
            value = _evaluate_packed_int(
                gate_type, [faulty.get(i, good[i]) for i in ins], mask
            )
            if value == good[row]:
                continue  # effect masked at this gate for all patterns
            faulty[row] = value
            if row in cc.po_set:
                detect |= value ^ good[row]
        if site in cc.po_set:
            detect |= stuck ^ good[site]
        return detect & mask

    def _run_single_word(
        self,
        patterns: np.ndarray,
        faults: List[StuckAtFault],
        result: FaultSimResult,
    ) -> FaultSimResult:
        for fault, detect in zip(faults, self.detection_masks(patterns, faults)):
            if detect:
                result.detected[fault] = (detect & -detect).bit_length() - 1
        result.undetected = [f for f in faults if f not in result.detected]
        return result

    def _first_detection(
        self,
        fault: StuckAtFault,
        good: np.ndarray,
        scratch: np.ndarray,
        masks: np.ndarray,
    ) -> Optional[int]:
        """Index of the first pattern detecting ``fault``, or ``None``.

        ``scratch`` is a working copy of ``good``; it is restored to the good
        values (cone rows only) before returning.
        """
        cc = self._compiled
        site = cc.index[fault.net]
        stuck = ALL_ONES if fault.value else np.uint64(0)
        excite = (good[site] ^ stuck) & masks
        if not excite.any():
            return None  # never excited by any pattern
        cone = cc.cone_schedule(fault.net)
        detect = cc.backend.xp.zeros(good.shape[1], dtype=np.uint64)
        if cone.po_rows.size:
            scratch[site] = stuck
            cc.run_cone(cone, scratch)
            detect = np.bitwise_or.reduce(
                scratch[cone.po_rows] ^ good[cone.po_rows], axis=0
            )
            scratch[cone.rows] = good[cone.rows]
            scratch[site] = good[site]
        if cone.site_is_output:
            detect = detect | excite
        detect = cc.backend.to_numpy(detect & masks)
        nonzero = np.flatnonzero(detect)
        if nonzero.size == 0:
            return None
        word = int(nonzero[0])
        bits = int(detect[word])
        return word * WORD_BITS + ((bits & -bits).bit_length() - 1)

    def run(
        self,
        patterns: np.ndarray,
        faults: Iterable[StuckAtFault],
        drop_detected: bool = True,
        mode: str = "auto",
    ) -> FaultSimResult:
        """Simulate ``faults`` against ``patterns`` (rows of 0/1).

        ``drop_detected`` is kept for API compatibility; the matrix engine
        judges every fault against the whole pattern set in one pass, so the
        reported detection index is always the *first* detecting pattern.

        ``mode`` selects the engine: ``"single"`` is the per-fault cone
        path, ``"ppsfp"`` batches up to 64 faults per levelized sweep
        (:mod:`repro.atpg.ppsfp`), and ``"auto"`` (default) picks PPSFP once
        the fault list is large enough to amortize the widened matrix.  All
        modes return bit-identical results.
        """
        if mode not in ("auto", "ppsfp", "single"):
            raise ValueError(f"unknown fault-sim mode {mode!r}")
        remaining: List[StuckAtFault] = list(faults)
        result = FaultSimResult()
        patterns = np.atleast_2d(np.asarray(patterns))
        n_patterns = patterns.shape[0]
        result.patterns_applied = n_patterns
        if n_patterns == 0 or not remaining:
            result.undetected = list(remaining)
            return result
        if mode == "auto":
            use_ppsfp = (
                n_patterns > WORD_BITS and len(remaining) >= PPSFP_MIN_FAULTS
            )
            mode = "ppsfp" if use_ppsfp else "single"
        if mode == "ppsfp":
            result.detected = ppsfp_detections(self._compiled, patterns, remaining)
            result.undetected = [f for f in remaining if f not in result.detected]
            return result
        if n_patterns <= WORD_BITS:
            return self._run_single_word(patterns, remaining, result)
        good = self._compiled.simulate_packed(pack_patterns(patterns))
        masks = self._compiled.backend.asarray(tail_mask(n_patterns))
        if drop_detected:
            # Pre-drop pass: most faults fall to the first 64 patterns, and the
            # Python-int cone walk on one word is far cheaper than a
            # whole-matrix cone evaluation.  Survivors pay the matrix cost.
            first_col: List[int] = self._compiled.backend.to_numpy(
                good[:, 0]
            ).tolist()
            survivors: List[StuckAtFault] = []
            for fault in remaining:
                site = self._compiled.index[fault.net]
                detect = self._detect_mask(
                    site, FULL_MASK if fault.value else 0, first_col, FULL_MASK
                )
                if detect:
                    result.detected[fault] = (detect & -detect).bit_length() - 1
                else:
                    survivors.append(fault)
            remaining = survivors
        if remaining:
            scratch = good.copy()
            for fault in remaining:
                first = self._first_detection(fault, good, scratch, masks)
                if first is not None:
                    result.detected[fault] = first
        result.undetected = [f for f in remaining if f not in result.detected]
        return result

    def detection_masks(
        self, patterns: np.ndarray, faults: Sequence[StuckAtFault]
    ) -> List[int]:
        """Per fault, the int whose bit *p* is set iff pattern *p* detects it.

        One good-circuit simulation; each matrix row becomes one n-bit int
        and every fault's cone is walked once at full width.  The lowest set
        bit is the first-detect index :meth:`run` reports; 0 = undetected.
        """
        patterns = np.atleast_2d(np.asarray(patterns))
        n_patterns = patterns.shape[0]
        if n_patterns == 0:
            return [0] * len(faults)
        matrix = self._compiled.simulate_packed(pack_patterns(patterns))
        host = np.ascontiguousarray(self._compiled.backend.to_numpy(matrix), dtype="<u8")
        data = host.tobytes()
        width = host.shape[1] * 8
        full = (1 << n_patterns) - 1
        # Inverting gates set the pad bits past n_patterns; mask them off so
        # the == early-exits in the cone walk stay exact.
        good = [
            int.from_bytes(data[start : start + width], "little") & full
            for start in range(0, len(data), width)
        ]
        index = self._compiled.index
        return [
            self._detect_mask(index[f.net], full if f.value else 0, good, full)
            for f in faults
        ]

    def detects(self, pattern: np.ndarray, fault: StuckAtFault) -> bool:
        """Does a single pattern detect ``fault``?"""
        outcome = self.run(np.atleast_2d(pattern), [fault])
        return fault in outcome.detected


def fault_coverage(
    circuit: Circuit, patterns: np.ndarray, faults: Iterable[StuckAtFault]
) -> float:
    """Fraction of ``faults`` detected by ``patterns``."""
    return FaultSimulator(circuit).run(patterns, faults).coverage


# ----------------------------------------------------------------------
# reference implementation (pre-compiled engine) for differential testing
# ----------------------------------------------------------------------
def _reference_good_values(
    circuit: Circuit, order: List[str], words: Dict[str, int], mask: int
) -> Dict[str, int]:
    values: Dict[str, int] = {}
    for net in order:
        gate = circuit.gate(net)
        gt = gate.gate_type
        if gt is GateType.INPUT:
            values[net] = words[net]
        elif gt is GateType.TIE0:
            values[net] = 0
        elif gt is GateType.TIE1:
            values[net] = mask
        else:
            values[net] = _evaluate_packed_int(
                gt, [values[i] for i in gate.inputs], mask
            )
    return values


def reference_fault_sim(
    circuit: Circuit,
    patterns: np.ndarray,
    faults: Iterable[StuckAtFault],
    drop_detected: bool = True,
) -> FaultSimResult:
    """The pre-compiled block/Python-int fault simulator, kept as an oracle.

    Processes 64 patterns at a time as arbitrary-precision ints and walks the
    fanout cone one gate per Python iteration.  Differential tests pin the
    compiled :class:`FaultSimulator` against it; benchmarks use it as the
    "before" measurement.

    One deliberate deviation from the historical implementation: with
    ``drop_detected=False`` the original overwrote a fault's detection index
    on every detecting block (so it reported the first index within the
    *last* detecting block).  Both this oracle (via ``setdefault``) and the
    compiled engine report the globally *first* detecting pattern in every
    mode, which is the meaningful quantity.
    """
    order = circuit.topological_order()
    order_index = {net: i for i, net in enumerate(order)}
    outputs = set(circuit.outputs)
    cone_cache: Dict[str, List[str]] = {}

    def cone_of(net: str) -> List[str]:
        cached = cone_cache.get(net)
        if cached is None:
            cone = circuit.fanout_cone(net)
            cone.discard(net)
            cached = sorted(cone, key=order_index.__getitem__)
            cone_cache[net] = cached
        return cached

    def detect_mask(fault: StuckAtFault, good: Dict[str, int], mask: int) -> int:
        stuck_word = mask if fault.value else 0
        if good[fault.net] == stuck_word:
            return 0
        faulty: Dict[str, int] = {fault.net: stuck_word}
        detect = 0
        for net in cone_of(fault.net):
            gate = circuit.gate(net)
            ins = [faulty.get(i, good[i]) for i in gate.inputs]
            value = _evaluate_packed_int(gate.gate_type, ins, mask)
            if value == good[net]:
                continue
            faulty[net] = value
            if net in outputs:
                detect |= value ^ good[net]
        if fault.net in outputs:
            detect |= stuck_word ^ good[fault.net]
        return detect & mask

    remaining: List[StuckAtFault] = list(faults)
    result = FaultSimResult()
    patterns = np.atleast_2d(np.asarray(patterns))
    result.patterns_applied = patterns.shape[0]
    for words, n_in_block, start in _blocks(patterns, circuit.inputs):
        if not remaining:
            break
        mask = (1 << n_in_block) - 1
        good = _reference_good_values(circuit, order, words, mask)
        still: List[StuckAtFault] = []
        for fault in remaining:
            detect = detect_mask(fault, good, mask)
            if detect:
                first = (detect & -detect).bit_length() - 1
                result.detected.setdefault(fault, start + first)
                if not drop_detected:
                    still.append(fault)
            else:
                still.append(fault)
        remaining = still
    result.undetected = [f for f in remaining if f not in result.detected]
    return result

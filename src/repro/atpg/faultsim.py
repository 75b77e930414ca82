"""Bit-parallel single-stuck-at fault simulation.

One engine serves every caller: :meth:`FaultSimulator.detection_masks`.  The
good circuit is simulated once for the whole pattern set on the compiled
levelized engine of :mod:`repro.sim.compiled`, and each row of the value
matrix becomes one arbitrary-width Python int (bit *p* = pattern *p*).  Each
fault is then injected at its site and its fanout cone walked gate by gate,
skipping gates with no faulty input and stopping wherever the effect is
masked; the XOR of faulty and good values on the cone's primary outputs is
the fault's detection mask.  :meth:`FaultSimulator.run` is the first-detect
view of those masks (the lowest set bit per fault).

This powers (a) the ATPG outer loop (drop every fault a fresh PODEM vector
detects), (b) compaction and coverage reporting, and (c) the reproduction's
analysis of *which* stuck-at faults the defender's TP set leaves uncovered —
the holes TrojanZero's removals hide in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gate import GateType
from ..sim.bitsim import pack_patterns
from ..sim.compiled import CompiledCircuit, compile_circuit
from .fault import StuckAtFault


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
    """Cone-restricted stuck-at fault simulator on detection masks."""

    def __init__(self, circuit: Circuit) -> None:
        if circuit.is_sequential:
            raise NetlistError("fault simulation supports combinational circuits only")
        self.circuit = circuit
        self._compiled: CompiledCircuit = compile_circuit(circuit)

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

    def run(
        self, patterns: np.ndarray, faults: Iterable[StuckAtFault]
    ) -> FaultSimResult:
        """Simulate ``faults`` against ``patterns`` (rows of 0/1).

        Each detected fault maps to the index of the *first* pattern that
        detects it: the lowest set bit of its :meth:`detection_masks` entry.
        """
        faults = list(faults)
        patterns = np.atleast_2d(np.asarray(patterns))
        result = FaultSimResult(patterns_applied=patterns.shape[0])
        for fault, detect in zip(faults, self.detection_masks(patterns, faults)):
            if detect:
                result.detected[fault] = (detect & -detect).bit_length() - 1
        result.undetected = [f for f in faults if f not in result.detected]
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
        host = np.ascontiguousarray(matrix, dtype="<u8")
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

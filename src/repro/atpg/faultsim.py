"""Bit-parallel single-stuck-at fault simulation.

One engine serves every caller: :meth:`FaultSimulator.detection_masks`.  The
good circuit is simulated once for the whole pattern set on the compiled
levelized engine of :mod:`repro.sim.compiled`, and each row of the value
matrix becomes one arbitrary-width Python int (bit *p* = pattern *p*).

Faults are then simulated by stem region (critical path tracing, Abramovici,
Menon & Miller, DAC 1983).  The circuit splits into fanout-free regions
(FFRs): a row is a region *root* when it is a primary output or when its
fanout, counted by reader pin, is not exactly one (a net read twice by one
gate, or read by nothing, is a root).  Every other row feeds exactly one pin
and is not observed directly, so a fault effect on it can leave the region
only through that pin, climbing one path to the root.  Along that path the
side inputs of each gate lie outside the fault's cone and keep their good
values, so the effect passes a gate on exactly the patterns where those
values sensitize its pin (AND/NAND: all side inputs 1; OR/NOR: all 0;
XOR/XNOR/NOT/BUFF: always; MUX: the select for a data pin, differing data
inputs for the select pin).  A fault's detection mask is therefore its
excitation ``good ^ stuck``, ANDed with each hop's sensitization, ANDed with
the root's *observability mask*: the patterns on which flipping the root
reaches a primary output.  Patterns are independent bit lanes, so this is
exact for single stuck-at faults.  Observability takes one event-driven
walk per root (:func:`propagate_forced`): from the flipped root, gate by
gate on Python ints, only the readers of rows whose value changed are
evaluated, in row (so topological) order, and the effect stops wherever it
is masked.  It is memoized per call, so the faults of a region share it, and
nothing per root outlives the call.  :meth:`FaultSimulator.run` is the
first-detect view of those masks (the lowest set bit per fault).

This powers (a) the ATPG outer loop (drop every fault a fresh PODEM vector
detects), (b) compaction and coverage reporting, and (c) the reproduction's
analysis of *which* stuck-at faults the defender's TP set leaves uncovered —
the holes TrojanZero's removals hide in.  The walk itself,
:func:`propagate_forced`, also decides Algorithm 1's trials
(:mod:`repro.core.salvage`): tying a net to a constant is the stuck-at
fault the defender's patterns either detect or miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Tuple

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


#: How a fanout-free hop lets a fault effect through, from the good values
#: of the reader's side inputs: all 1, all 0, or (a MUX select pin, whose
#: side inputs are the data pins) the two differing.
_ALL_ONE, _ALL_ZERO, _DIFFER = "all-one", "all-zero", "differ"

Hop = Tuple[int, str, Tuple[int, ...]]


def _fanout_free_hops(cc: CompiledCircuit) -> List[Optional[Hop]]:
    """Per row, its one hop toward its fanout-free-region root, or None.

    A row is a root when it is a primary output or when its fanout, counted
    by reader *pin*, is not exactly 1 — so a net read twice by one gate is a
    root, and so is a dangling net.  Every other row feeds exactly one pin
    and is no PO, so a fault effect on it reaches the rest of the circuit
    only through that pin: its hop is ``(reader row, kind, side rows)``,
    the side rows being the reader's other inputs (for a MUX data pin, the
    select alone).
    """
    pins = [0] * cc.n_nets
    hops: List[Optional[Hop]] = [None] * cc.n_nets
    for reader, node in enumerate(cc.node):
        if node is None:
            continue
        gate_type, ins = node
        for pin, src in enumerate(ins):
            pins[src] += 1
            if gate_type is GateType.MUX:
                d0, d1, sel = ins
                kind, side = (
                    (_ALL_ZERO, (sel,)), (_ALL_ONE, (sel,)), (_DIFFER, (d0, d1))
                )[pin]
            elif gate_type is GateType.AND or gate_type is GateType.NAND:
                kind, side = _ALL_ONE, ins[:pin] + ins[pin + 1 :]
            elif gate_type is GateType.OR or gate_type is GateType.NOR:
                kind, side = _ALL_ZERO, ins[:pin] + ins[pin + 1 :]
            else:  # XOR/XNOR/NOT/BUFF pass every flip
                kind, side = _ALL_ONE, ()
            hops[src] = (reader, kind, side)
    for row in range(cc.n_nets):
        if pins[row] != 1 or row in cc.po_set:
            hops[row] = None
    return hops


def good_values(cc: CompiledCircuit, patterns: np.ndarray) -> Tuple[List[int], int]:
    """Simulate ``patterns`` once; per row of ``cc``, one n-bit Python int.

    Bit *p* of row *r*'s int is row *r*'s value on pattern *p*.  Also
    returns ``full``, the int with all n pattern bits set.
    """
    n_patterns = patterns.shape[0]
    full = (1 << n_patterns) - 1
    if n_patterns == 0:
        return [0] * cc.n_nets, full
    matrix = cc.simulate_packed(pack_patterns(patterns))
    host = np.ascontiguousarray(matrix, dtype="<u8")
    data = host.tobytes()
    width = host.shape[1] * 8
    # Inverting gates set the pad bits past n_patterns; mask them off so
    # the == early-exits in the fault-effect walk stay exact.
    good = [
        int.from_bytes(data[start : start + width], "little") & full
        for start in range(0, len(data), width)
    ]
    return good, full


def propagate_forced(
    node: Sequence[Optional[Tuple[GateType, Tuple[int, ...]]]],
    po_set: AbstractSet[int],
    readers: Sequence[Sequence[int]],
    good: List[int],
    forced: Dict[int, int],
    full: int,
) -> int:
    """Walk forward from some forced rows; bit *p* set iff a PO changes.

    ``forced`` maps rows to the values they are forced to; ``readers`` gives
    each row's reader rows and ``node`` each row's gate type and input rows.
    Starting from the forced rows, the readers of every changed row are
    queued once and popped in ascending row order, which is topological
    (compiled rows are level-sorted), so a gate is evaluated, on Python ints
    over ``good``, after all its inputs are final.  A value equal to
    ``good`` queues nothing, so an effect stops wherever it is masked.
    Forced rows keep their values, and a row with no inputs never changes.
    ``forced`` is extended in place with every row whose value changed: on
    return it is exactly the difference between the forced circuit and
    ``good``.
    """
    observed = 0
    queued = set(forced)
    heap = sorted(queued)
    while heap:
        row = heappop(heap)
        value = forced.get(row)
        if value is None:
            gate_type, ins = node[row]
            if not ins:
                continue  # a tied row
            value = _evaluate_packed_int(
                gate_type, [forced.get(i, good[i]) for i in ins], full
            )
            if value == good[row]:
                continue  # change masked at this gate for all patterns
            forced[row] = value
        if row in po_set:
            observed |= value ^ good[row]
        for reader in readers[row]:
            if reader not in queued:
                queued.add(reader)
                heappush(heap, reader)
    return observed


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
    """Stem-region stuck-at fault simulator on detection masks."""

    def __init__(self, circuit: Circuit) -> None:
        if circuit.is_sequential:
            raise NetlistError("fault simulation supports combinational circuits only")
        self.circuit = circuit
        self._compiled: CompiledCircuit = compile_circuit(circuit)
        self._hops = _fanout_free_hops(self._compiled)

    def _observability(self, root: int, good: List[int], full: int) -> int:
        """Bit *p* set iff flipping row ``root`` on pattern *p* reaches a PO."""
        cc = self._compiled
        if root in cc.po_set:
            return full
        return propagate_forced(
            cc.node, cc.po_set, cc.readers, good, {root: good[root] ^ full}, full
        )

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

        One good-circuit simulation; each matrix row becomes one n-bit int.
        A fault's effect ``good ^ stuck`` climbs its fanout-free region one
        gate at a time, kept only where the gate's side inputs let it
        through, and what reaches the region's root is ANDed with the root's
        observability mask — one walk forward from the root, shared by every
        fault of the region.  The lowest set bit is the first-detect index
        :meth:`run` reports; 0 = undetected.
        """
        good, full = good_values(self._compiled, np.atleast_2d(np.asarray(patterns)))
        index = self._compiled.index
        hops = self._hops
        observability: Dict[int, int] = {}
        masks: List[int] = []
        for fault in faults:
            row = index[fault.net]
            effect = (good[row] ^ full) if fault.value else good[row]
            hop = hops[row]
            while hop is not None and effect:
                reader, kind, side = hop
                if kind is _ALL_ONE:
                    for i in side:
                        effect &= good[i]
                elif kind is _ALL_ZERO:
                    for i in side:
                        effect &= ~good[i]
                elif kind is _DIFFER:
                    effect &= good[side[0]] ^ good[side[1]]
                row = reader
                hop = hops[row]
            if effect:
                observed = observability.get(row)
                if observed is None:
                    observed = observability[row] = self._observability(
                        row, good, full
                    )
                effect &= observed
            masks.append(effect)
        return masks

    def detects(self, pattern: np.ndarray, fault: StuckAtFault) -> bool:
        """Does a single pattern detect ``fault``?"""
        outcome = self.run(np.atleast_2d(pattern), [fault])
        return fault in outcome.detected


def fault_coverage(
    circuit: Circuit, patterns: np.ndarray, faults: Iterable[StuckAtFault]
) -> float:
    """Fraction of ``faults`` detected by ``patterns``."""
    return FaultSimulator(circuit).run(patterns, faults).coverage

"""Test-only oracles: the fault simulator as it was before compilation.

``reference_fault_sim`` processes 64 patterns at a time as
arbitrary-precision Python ints and re-derives every gate's good value from
the :class:`~repro.netlist.circuit.Circuit` object itself, so it shares no
schedule, row order or cone cache with the compiled
:class:`~repro.atpg.faultsim.FaultSimulator` it pins.  Differential tests in
``tests/`` and the speedup figures of ``benchmarks/test_perf_sim.py`` use it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.atpg.fault import StuckAtFault
from repro.atpg.faultsim import FaultSimResult, _evaluate_packed_int
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.sim.bitsim import WORD_BITS, pack_patterns


def _blocks(patterns: np.ndarray, inputs: Sequence[str]) -> Iterable[Tuple[Dict[str, int], int, int]]:
    """Yield (pi -> packed int, n_patterns_in_block, block_start) per 64-row block."""
    patterns = np.atleast_2d(np.asarray(patterns))
    n = patterns.shape[0]
    for start in range(0, n, WORD_BITS):
        chunk = patterns[start : start + WORD_BITS]
        packed = pack_patterns(chunk)  # (n_inputs, 1) — vectorized, no bit loop
        words = {pi: int(packed[col, 0]) for col, pi in enumerate(inputs)}
        yield words, chunk.shape[0], start


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

    ``drop_detected`` stops simulating a fault after the first block that
    detects it.  One deliberate deviation from the historical
    implementation: with ``drop_detected=False`` the original overwrote a
    fault's detection index on every detecting block (so it reported the
    first index within the *last* detecting block).  This oracle keeps the
    first (via ``setdefault``), so both settings report the globally *first*
    detecting pattern, as :meth:`FaultSimulator.run` does.
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

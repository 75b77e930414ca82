"""Test-only oracles: the simulators as they were before compilation.

Each oracle re-derives every gate's value from the
:class:`~repro.netlist.circuit.Circuit` object itself, one gate per Python
step, so it shares no schedule, row order or cone cache with the compiled
engine it pins:

* ``reference_run_packed`` — the per-gate combinational interpreter behind
  :class:`~repro.sim.BitSimulator`;
* ``reference_step_packed`` / ``ReferenceSequentialSimulator`` — the
  per-gate edge-driven dict engine behind
  :class:`~repro.sim.SequentialSimulator`;
* ``WholeCircuitSequentialSimulator`` — the compiled engine stepping the
  *whole* schedule per vector, as :class:`~repro.sim.SequentialSimulator`
  did before it split its work into a wide pass over the rows that read
  only the current vector and a per-vector step of the state rows;
* ``reference_fault_sim`` — the block-wise Python-int fault simulator
  behind :class:`~repro.atpg.faultsim.FaultSimulator`; it processes 64
  patterns at a time as arbitrary-precision Python ints;
* ``reference_detection_masks`` — full-width detection masks by one
  fanout-cone walk per *fault*, as
  :meth:`~repro.atpg.faultsim.FaultSimulator.detection_masks` computed them
  before it walked one cone per fanout-free-region root.

Three netlist-walk oracles sit alongside them, each the straightforward form
of an optimized pass:

* ``reference_strip_dead_logic`` — dead-logic removal one gate per
  :meth:`~repro.netlist.circuit.Circuit.remove_gate`, re-deriving fanout
  after every edit (:func:`~repro.netlist.transform.strip_dead_logic`);
* ``reference_optimize_netlist`` — synthesis cleanup as four per-gate
  passes (constant folding, buffer collapse, inverter-pair collapse,
  dead-logic strip) iterated to a fixed point
  (:func:`~repro.netlist.transform.optimize_netlist`);
* ``reference_rank_victims`` — victim ranking with one fan-out cone walk
  per net (:func:`~repro.core.insertion.rank_victims`);
* ``reference_salvage`` — Algorithm 1 with one circuit copy, tie,
  dead-strip and full ``functional_test`` against ``N`` per candidate
  (:func:`~repro.core.salvage.salvage` walks one stuck-at cone instead).

Differential tests in ``tests/`` and the speedup figures of
``benchmarks/test_perf_sim.py`` use them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.atpg.fault import StuckAtFault
from repro.atpg.faultsim import FaultSimResult, _evaluate_packed_int
from repro.core.salvage import RemovalRecord, SalvageResult
from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.gate import GateType
from repro.netlist.transform import _fold_gate, strip_dead_logic, tie_net_to_constant
from repro.power.analysis import PowerReport, analyze
from repro.power.library import CellLibrary
from repro.prob.propagate import rare_nodes, signal_probabilities
from repro.sim.bitsim import ALL_ONES, WORD_BITS, pack_patterns, unpack_patterns
from repro.sim.compiled import compile_circuit
from repro.sim.equivalence import functional_test


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


def reference_detection_masks(
    circuit: Circuit, patterns: np.ndarray, faults: Sequence[StuckAtFault]
) -> List[int]:
    """Per fault, the int whose bit *p* is set iff pattern *p* detects it.

    One good simulation on the compiled engine, each row one n-bit int, then
    one Python-int walk of every fault's own fanout cone: inject the stuck
    value at the site, evaluate each cone gate with a faulty input, stop
    where the effect is masked, and collect faulty ^ good on the primary
    outputs.  No fanout-free-region shortcut, so it pins
    :meth:`~repro.atpg.faultsim.FaultSimulator.detection_masks` bit for bit.
    """
    patterns = np.atleast_2d(np.asarray(patterns))
    n_patterns = patterns.shape[0]
    if n_patterns == 0:
        return [0] * len(faults)
    cc = compile_circuit(circuit)
    matrix = cc.simulate_packed(pack_patterns(patterns))
    host = np.ascontiguousarray(matrix, dtype="<u8")
    data = host.tobytes()
    width = host.shape[1] * 8
    full = (1 << n_patterns) - 1
    good = [
        int.from_bytes(data[start : start + width], "little") & full
        for start in range(0, len(data), width)
    ]

    def detect_mask(site: int, stuck: int) -> int:
        if good[site] == stuck:
            return 0  # never excited by these patterns
        faulty: Dict[int, int] = {site: stuck}
        detect = 0
        for row in cc.cone_rows_at(site):
            gate_type, ins = cc.node[row]
            if faulty.keys().isdisjoint(ins):
                continue  # no input carries the fault effect
            value = _evaluate_packed_int(
                gate_type, [faulty.get(i, good[i]) for i in ins], full
            )
            if value == good[row]:
                continue  # effect masked at this gate for all patterns
            faulty[row] = value
            if row in cc.po_set:
                detect |= value ^ good[row]
        if site in cc.po_set:
            detect |= stuck ^ good[site]
        return detect & full

    return [detect_mask(cc.index[f.net], full if f.value else 0) for f in faults]


def _eval_packed(
    gate_type: GateType, inputs: List[np.ndarray], ones: np.ndarray
) -> np.ndarray:
    """Evaluate one gate on packed uint64 vectors."""
    if gate_type is GateType.AND or gate_type is GateType.NAND:
        acc = inputs[0].copy()
        for word in inputs[1:]:
            acc &= word
        return (acc ^ ones) if gate_type is GateType.NAND else acc
    if gate_type is GateType.OR or gate_type is GateType.NOR:
        acc = inputs[0].copy()
        for word in inputs[1:]:
            acc |= word
        return (acc ^ ones) if gate_type is GateType.NOR else acc
    if gate_type is GateType.XOR or gate_type is GateType.XNOR:
        acc = inputs[0].copy()
        for word in inputs[1:]:
            acc ^= word
        return (acc ^ ones) if gate_type is GateType.XNOR else acc
    if gate_type is GateType.NOT:
        return inputs[0] ^ ones
    if gate_type is GateType.BUFF:
        return inputs[0].copy()
    if gate_type is GateType.MUX:
        d0, d1, sel = inputs
        return (d0 & (sel ^ ones)) | (d1 & sel)
    raise NetlistError(f"cannot bit-simulate gate type {gate_type}")


def reference_run_packed(
    circuit: Circuit, packed_inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Per-gate interpreter (the pre-compiled engine), kept as a reference.

    Walks the netlist dict one gate at a time.  Used by the differential
    tests in ``tests/test_sim_compiled.py`` and as the "before" measurement
    in ``benchmarks/test_perf_sim.py``; production code should go through
    :class:`BitSimulator` instead.
    """
    n_words = len(next(iter(packed_inputs.values()))) if packed_inputs else 1
    values: Dict[str, np.ndarray] = {}
    ones = np.full(n_words, ALL_ONES, dtype=np.uint64)
    zeros = np.zeros(n_words, dtype=np.uint64)
    for net in circuit.topological_order():
        gate = circuit.gate(net)
        gt = gate.gate_type
        if gt is GateType.INPUT:
            values[net] = np.asarray(packed_inputs[net], dtype=np.uint64)
        elif gt is GateType.TIE0:
            values[net] = zeros
        elif gt is GateType.TIE1:
            values[net] = ones
        else:
            values[net] = _eval_packed(gt, [values[i] for i in gate.inputs], ones)
    return values


# ----------------------------------------------------------------------
# reference dict engine (pre-compiled implementation, kept for tests)
# ----------------------------------------------------------------------
def _reference_settle(
    circuit: Circuit,
    packed_inputs: Dict[str, np.ndarray],
    state: Dict[str, np.ndarray],
    n_words: int,
) -> Dict[str, np.ndarray]:
    """Evaluate every net one dict-gate at a time (the original engine)."""
    ones = np.full(n_words, ALL_ONES, dtype=np.uint64)
    zeros = np.zeros(n_words, dtype=np.uint64)
    values: Dict[str, np.ndarray] = {}
    for net in circuit.topological_order():
        gate = circuit.gate(net)
        gt = gate.gate_type
        if gt is GateType.INPUT:
            values[net] = packed_inputs[net]
        elif gt is GateType.DFF:
            values[net] = state[net]
        elif gt is GateType.TIE0:
            values[net] = zeros
        elif gt is GateType.TIE1:
            values[net] = ones
        else:
            values[net] = _eval_packed(gt, [values[i] for i in gate.inputs], ones)
    return values


def reference_step_packed(
    circuit: Circuit,
    packed_inputs: Dict[str, np.ndarray],
    state: Dict[str, np.ndarray],
    prev_clk: Optional[Dict[str, np.ndarray]],
    n_words: int,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """One edge-driven vector step of the per-gate dict engine.

    Pure-functional reference for differential tests: takes the flip-flop
    ``state`` and previous clock snapshot, returns ``(settled values, new
    state, new clock snapshot)``.  Production code should use
    :class:`SequentialSimulator`, which is bit-identical but runs on the
    compiled levelized schedule.
    """
    dffs = [g.name for g in circuit.gates() if g.gate_type is GateType.DFF]
    values = _reference_settle(circuit, packed_inputs, state, n_words)
    state = dict(state)
    if dffs:
        max_ripple = len(dffs) + 2
        for _ in range(max_ripple):
            if prev_clk is None:
                # First vector establishes the clock baseline; no edges fire.
                break
            fired = False
            for dff in dffs:
                d_net, clk_net = circuit.gate(dff).inputs
                edge = (prev_clk[dff] ^ ALL_ONES) & values[clk_net]
                if edge.any():
                    fired = True
                    state[dff] = (state[dff] & (edge ^ ALL_ONES)) | (
                        values[d_net] & edge
                    )
            # Record clocks *before* re-settle so ripple edges are seen next pass.
            prev_clk = {
                dff: values[circuit.gate(dff).inputs[1]].copy() for dff in dffs
            }
            if not fired:
                break
            values = _reference_settle(circuit, packed_inputs, state, n_words)
        prev_clk = {
            dff: values[circuit.gate(dff).inputs[1]].copy() for dff in dffs
        }
    return values, state, prev_clk


class ReferenceSequentialSimulator:
    """The original per-gate dict engine behind the same public API.

    Kept verbatim (modulo the pure-functional step extraction) so the
    differential tests in ``tests/test_seqsim_compiled.py`` and the seqsim
    "before" timings in ``benchmarks/test_perf_sim.py`` can pit the compiled
    engine against it.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._dffs: List[str] = [
            g.name for g in circuit.gates() if g.gate_type is GateType.DFF
        ]
        self._state: Dict[str, np.ndarray] = {}
        self._prev_clk: Optional[Dict[str, np.ndarray]] = None
        self._n_words = 0

    @property
    def dff_nets(self) -> Tuple[str, ...]:
        return tuple(self._dffs)

    def reset(self, n_sequences: int) -> None:
        self._n_words = (n_sequences + 63) // 64
        zeros = np.zeros(self._n_words, dtype=np.uint64)
        self._state = {d: zeros.copy() for d in self._dffs}
        self._prev_clk = None

    def step_packed(self, packed_inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        if not self._state and self._dffs:
            raise RuntimeError("call reset() before stepping")
        values, self._state, self._prev_clk = reference_step_packed(
            self.circuit, packed_inputs, self._state, self._prev_clk, self._n_words
        )
        return values

    def run_sequences_nets(
        self, sequences: np.ndarray, nets: Sequence[str]
    ) -> np.ndarray:
        sequences = np.asarray(sequences)
        n_seqs, n_steps, _ = sequences.shape
        self.reset(n_seqs)
        out = np.zeros((n_seqs, n_steps, len(nets)), dtype=np.uint8)
        for t in range(n_steps):
            packed = pack_patterns(sequences[:, t, :])
            packed_inputs = {pi: packed[i] for i, pi in enumerate(self.circuit.inputs)}
            values = self.step_packed(packed_inputs)
            if nets:
                words = np.stack([values[net] for net in nets])
                out[:, t, :] = unpack_patterns(words, n_seqs)
        return out

    def run_sequences(self, sequences: np.ndarray) -> np.ndarray:
        return self.run_sequences_nets(sequences, self.circuit.outputs)

    def run_sequence_tracking(
        self, sequence: np.ndarray, watch: List[str]
    ) -> Dict[str, np.ndarray]:
        sequence = np.atleast_2d(np.asarray(sequence))
        traces = self.run_sequences_nets(sequence[np.newaxis], list(watch))[0]
        return {net: traces[:, i].copy() for i, net in enumerate(watch)}


def reference_strip_dead_logic(circuit: Circuit, protect: Iterable[str] = ()) -> List[str]:
    """Remove logic that cannot reach a protected net, in reverse-topological
    waves over the live netlist, one ``remove_gate`` (and fanout rebuild) at a
    time.  Returns the removed names in removal order."""
    protected: Set[str] = set(protect) | set(circuit.outputs)
    live: Set[str] = set()
    stack = [n for n in protected if circuit.has_net(n)]
    while stack:
        net = stack.pop()
        if net in live:
            continue
        live.add(net)
        stack.extend(circuit.gate(net).inputs)

    removed: List[str] = []
    changed = True
    while changed:
        changed = False
        for net in list(circuit.nets):
            gate = circuit.gate(net)
            if gate.is_input or net in live:
                continue
            if circuit.fanout(net):
                continue
            circuit.remove_gate(net)
            removed.append(net)
            changed = True
    return removed


def netlist_structure(circuit: Circuit):
    """PI list, PO list and the gate map in order: what two structurally
    identical circuits share."""
    return (
        circuit.inputs,
        circuit.outputs,
        [(g.name, g.gate_type, g.inputs) for g in circuit.gates()],
    )


def reference_optimize_netlist(circuit: Circuit) -> Circuit:
    """Synthesis cleanup on a copy: the four passes below, rerun until a
    round changes nothing (at most 16 rounds)."""
    optimized = circuit.copy()
    # Iterate to a fixed point: each pass can expose work for the others.
    for _ in range(16):
        changed = len(_propagate_constants(optimized))
        changed += _collapse_buffers(optimized)
        changed += _collapse_inverter_pairs(optimized)
        changed += len(strip_dead_logic(optimized))
        if not changed:
            break
    return optimized


def _propagate_constants(circuit: Circuit) -> List[str]:
    """Fold TIE0/TIE1 cells through downstream logic, one ``replace_gate``
    per folded gate, until nothing folds.  Returns the simplified nets."""
    simplified: List[str] = []
    changed = True
    while changed:
        changed = False
        const_nets: Dict[str, int] = {
            g.name: (1 if g.gate_type is GateType.TIE1 else 0)
            for g in circuit.logic_gates()
            if g.is_constant
        }
        if not const_nets:
            break
        for net in circuit.topological_order():
            gate = circuit.gate(net)
            if gate.is_input or gate.is_constant or gate.is_sequential:
                continue
            const_ins = [i for i in gate.inputs if i in const_nets]
            if not const_ins:
                continue
            new_gate = _fold_gate(gate, const_nets)
            if new_gate is not None:
                circuit.replace_gate(net, new_gate[0], new_gate[1])
                simplified.append(net)
                changed = True
    return simplified


def _collapse_buffers(circuit: Circuit) -> int:
    """Bypass BUFF gates whose output is not a primary output.  Returns count."""
    collapsed = 0
    for net in list(circuit.nets):
        if not circuit.has_net(net):
            continue
        gate = circuit.gate(net)
        if gate.gate_type is not GateType.BUFF or net in circuit.outputs:
            continue
        source = gate.inputs[0]
        for reader in list(circuit.fanout(net)):
            circuit.rewire_input(reader, net, source)
        if not circuit.fanout(net):
            circuit.remove_gate(net)
            collapsed += 1
    return collapsed


def _collapse_inverter_pairs(circuit: Circuit) -> int:
    """Rewire readers of NOT(NOT(x)) chains directly to x.  Returns count."""
    collapsed = 0
    for net in list(circuit.nets):
        if not circuit.has_net(net):
            continue
        gate = circuit.gate(net)
        if gate.gate_type is not GateType.NOT:
            continue
        inner = circuit.gate(gate.inputs[0])
        if inner.gate_type is not GateType.NOT:
            continue
        source = inner.inputs[0]
        if net in circuit.outputs:
            continue
        for reader in list(circuit.fanout(net)):
            circuit.rewire_input(reader, net, source)
        if not circuit.fanout(net):
            circuit.remove_gate(net)
            collapsed += 1
    return collapsed


def reference_rank_victims(circuit: Circuit, limit: int) -> List[str]:
    """Victim ranking with one ``fanout_cone`` walk per internal net."""
    probs = signal_probabilities(circuit)
    scored: List[Tuple[int, str]] = []
    for net in circuit.internal_nets():
        gate = circuit.gate(net)
        if gate.is_constant:
            continue
        p = probs[net]
        if p < 0.05 or p > 0.95:
            continue
        cone = circuit.fanout_cone(net)
        reach = sum(1 for n in cone if n in circuit.outputs)
        if reach == 0:
            continue
        scored.append((len(cone) + 10 * reach, net))
    scored.sort(reverse=True)
    return [net for _, net in scored[:limit]]


class WholeCircuitSequentialSimulator:
    """The compiled engine stepping every row of the schedule per vector.

    Each vector loads the PI and state rows, settles the full schedule, and
    runs the ripple loop with a full re-settle per pass — no plan, no free
    rows, no watched-set restriction.  Benchmarks time the split engine of
    :meth:`repro.sim.SequentialSimulator.run_sequences_nets` against it.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._compiled = compile_circuit(circuit)
        self._state: Optional[np.ndarray] = None
        self._prev_clk: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None

    def reset(self, n_sequences: int) -> None:
        """Zero all flip-flop states for ``n_sequences`` parallel sequences."""
        n_words = (n_sequences + 63) // 64
        self._state = np.zeros((self._compiled.dff_idx.size, n_words), dtype=np.uint64)
        self._prev_clk = None
        self._values = self._compiled.new_matrix(n_words)

    def _step_matrix(self, packed_pi_words: np.ndarray) -> np.ndarray:
        """One vector step on the reusable matrix; returns the settled matrix."""
        cc, values, state = self._compiled, self._values, self._state
        if cc.input_idx.size:
            values[cc.input_idx] = packed_pi_words
        values[cc.dff_idx] = state
        cc.run_matrix(values)
        if self._prev_clk is not None:
            prev_clk = self._prev_clk
            for _ in range(cc.dff_idx.size + 2):
                clk = values[cc.dff_clk_idx]
                edge = ~prev_clk & clk
                prev_clk = clk
                if not edge.any():
                    break
                state &= ~edge
                state |= values[cc.dff_d_idx] & edge
                values[cc.dff_idx] = state
                cc.run_matrix(values)
        self._prev_clk = values[cc.dff_clk_idx]
        return values

    def run_sequences_nets(
        self, sequences: np.ndarray, nets: Sequence[str]
    ) -> np.ndarray:
        sequences = np.asarray(sequences)
        n_seqs, n_steps, n_inputs = sequences.shape
        self.reset(n_seqs)
        rows = np.array([self._compiled.index[net] for net in nets], dtype=np.intp)
        out = np.zeros((n_seqs, n_steps, len(nets)), dtype=np.uint8)
        if n_steps == 0 or n_seqs == 0:
            return out
        n_words = self._values.shape[1]
        packed_steps = pack_patterns(
            sequences.reshape(n_seqs, n_steps * n_inputs)
        ).reshape(n_steps, n_inputs, n_words)
        for t in range(n_steps):
            values = self._step_matrix(packed_steps[t])
            if rows.size:
                out[:, t, :] = unpack_patterns(values[rows], n_seqs)
        return out


def reference_salvage(
    circuit: Circuit,
    pattern_sets: Sequence[np.ndarray],
    library: CellLibrary,
    p_threshold: float,
    power_before: Optional[PowerReport] = None,
    max_candidates: Optional[int] = None,
) -> SalvageResult:
    """Algorithm 1 by whole-circuit trials: per candidate, tie it on a copy
    of the working circuit, dead-strip, and keep the copy only if
    ``functional_test`` against ``N`` passes every pattern set."""
    golden = circuit.copy()
    work = circuit.copy(f"{circuit.name}_mod")
    if power_before is None:
        power_before = analyze(circuit, library)

    candidates = rare_nodes(work, p_threshold)
    if max_candidates is not None:
        candidates = candidates[:max_candidates]

    removals: List[RemovalRecord] = []
    for net, p_one in candidates:
        if not work.has_net(net):
            removals.append(
                RemovalRecord(net, p_one, -1, False, reason="already stripped")
            )
            continue
        gate = work.gate(net)
        if gate.is_constant or gate.is_input:
            removals.append(
                RemovalRecord(net, p_one, -1, False, reason="not a logic gate")
            )
            continue
        tied_value = 1 if p_one >= 0.5 else 0

        trial = work.copy()
        tie_net_to_constant(trial, net, tied_value)
        stripped = strip_dead_logic(trial)
        if functional_test(trial, golden, pattern_sets):
            work = trial
            removals.append(
                RemovalRecord(
                    net,
                    p_one,
                    tied_value,
                    True,
                    stripped_gates=tuple(stripped),
                    reason="passed all defender tests",
                )
            )
        else:
            removals.append(
                RemovalRecord(
                    net,
                    p_one,
                    tied_value,
                    False,
                    reason="defender test pattern detected the edit",
                )
            )

    return SalvageResult(
        original=circuit,
        modified=work,
        p_threshold=p_threshold,
        candidates=candidates,
        removals=removals,
        power_before=power_before,
        power_after=analyze(work, library),
    )

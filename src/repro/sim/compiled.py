"""Compiled levelized simulation core: array-based gate evaluation.

This module compiles a :class:`~repro.netlist.circuit.Circuit` **once** into
flat NumPy structures so that a full bit-parallel simulation pass is a handful
of vectorized operations per (level, gate-type) group instead of one Python
iteration per gate.  It is the engine behind :class:`repro.sim.BitSimulator`
and :class:`repro.atpg.FaultSimulator`; callers normally keep using those
public APIs and get the compiled path transparently.

Level-schedule layout
---------------------
Compilation assigns every net a dense integer row index (topological order)
and builds:

* ``values``: a ``(n_nets, n_words)`` uint64 matrix — row *i* holds the packed
  simulation words of net *i* (64 patterns per word, bit ``k`` of word ``w``
  is pattern ``w*64 + k``, matching :func:`repro.sim.bitsim.pack_patterns`).
* ``schedule``: an ordered list of :class:`GateGroup` records.  All gates that
  share the same ``(logic level, gate type, arity)`` are grouped together;
  groups are sorted by level, so by the time a group is evaluated every row it
  reads has already been written.  A group evaluates as

  ``values[out_idx] = reduce(op, values[in_idx], axis=1)``

  where ``in_idx`` has shape ``(n_gates_in_group, arity)`` — one fancy-indexed
  gather, one ufunc reduction, and one scatter per group, independent of the
  number of gates in the group.
* constant rows: ``TIE0``/``TIE1`` rows are pre-filled when the matrix is
  allocated and never revisited.

Fault-simulation support
------------------------
Fault simulation (:class:`~repro.atpg.faultsim.FaultSimulator`) runs the full
schedule once for the good values, then follows each fanout-free-region
root's flip forward one gate at a time on Python ints; each fault reaches
its root along a single path, evaluated from good values.  The compiled form
supplies what that needs: ``node``, each row's gate type and input rows
(from which the simulator derives its region table), and
:attr:`CompiledCircuit.readers`, each row's reader rows.  Rows are numbered
in level order, so popping queued readers in ascending row order evaluates
every gate after all of its inputs.  Nothing per root or per fault is kept
on the compiled form.

Sequential schedule
-------------------
Sequential circuits compile too: every DFF *output* net becomes an extra
source row alongside the PIs and TIE constants (it is a level-0 net — the
flip-flop breaks the timing loop), and the levelized group schedule covers
only the combinational fan-in.  :meth:`CompiledCircuit.sequential_plan`
splits that schedule for one set of watched rows: the rows the watched
rows need (their fan-in, crossing each DFF through its ``d`` and ``clk``
rows) fall into *free* rows, which read only the current input vector, and
*state* rows, which have a DFF in their fan-in.  :mod:`repro.sim.seqsim`
evaluates the free sub-schedule once over every (step, word) column and
steps only the state sub-schedule per vector, latching DFFs through the
plan's ``dff_idx``/``dff_d_idx``/``dff_clk_idx`` row triples.  Plans are
cached per watched set in a bounded per-circuit cache.

Compilation caching
-------------------
:func:`compile_circuit` memoizes at two levels:

1. **attached** — the compiled form is stored on the circuit object itself;
   any structural mutation invalidates it (``Circuit._invalidate``), and
   ``Circuit.copy()`` carries it over, so unmutated copies share it.
2. **fingerprint** — a bounded LRU keyed by
   :meth:`Circuit.structural_fingerprint` catches structurally identical
   circuits that are *different objects* (edit/revert round-trips,
   re-parsed netlists).

Salvage's tie trials need neither: they are stuck-at fault-effect walks on
the compiled form of the unedited circuit (:mod:`repro.core.salvage`).
``COMPILE_STATS`` counts hits per level so callers (and the perf harness)
can verify cache behaviour.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from ..netlist.gate import GateType

#: Patterns per simulation word (one uint64 per 64 patterns).
WORD_BITS = 64

#: All 64 bits set, as the uint64 scalar used in vectorized inversions.
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: All 64 bits set, as a Python int (for arbitrary-precision word walks).
FULL_MASK = (1 << WORD_BITS) - 1

#: Bound on the watched-rows -> sequential plan cache (callers reuse a few
#: watched sets; an adversarial workload must not grow it unboundedly).
_PLAN_CACHE_MAX = 32

#: numpy reduction ufunc per associative gate family.
_REDUCERS = {
    GateType.AND: np.bitwise_and,
    GateType.NAND: np.bitwise_and,
    GateType.OR: np.bitwise_or,
    GateType.NOR: np.bitwise_or,
    GateType.XOR: np.bitwise_xor,
    GateType.XNOR: np.bitwise_xor,
}

_INVERTING = frozenset({GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT})


@dataclass(frozen=True)
class GateGroup:
    """All gates of one type/arity on one logic level.

    ``out_idx`` has shape ``(n_gates,)``; ``in_idx`` has shape
    ``(n_gates, arity)``.  Both index rows of the value matrix.  ``out`` is
    the scatter target actually used during evaluation: row indexing assigns
    rows in schedule order, so full-schedule groups write one contiguous row
    *slice* (cheap basic indexing); cone-restricted subgroups fall back to an
    index array.  ``reducer`` (the numpy ufunc of an associative gate, else
    ``None``) and ``invert`` are resolved from ``gate_type`` at compile time,
    so evaluation never hashes the enum.
    """

    level: int
    gate_type: GateType
    out_idx: np.ndarray
    in_idx: np.ndarray
    out: object
    reducer: Optional[np.ufunc]
    invert: bool


def _evaluate_group(group: GateGroup, values: np.ndarray) -> None:
    """Evaluate one gate group in place on the ``(n_nets, n_words)`` matrix."""
    reducer = group.reducer
    in_idx = group.in_idx
    if in_idx.shape[0] == 1:
        # Single-gate group: basic row indexing (views) skips the gather
        # copies — these groups are ~half the schedule on real circuits, so
        # the per-group constant factor matters.
        row = in_idx[0]
        if reducer is not None:
            if row.size == 2:
                acc = reducer(values[row[0]], values[row[1]])
            else:
                acc = reducer.reduce(values[row], axis=0)
            if group.invert:
                np.invert(acc, out=acc)
        elif group.gate_type is GateType.MUX:
            d0 = values[row[0]]
            acc = ((values[row[1]] ^ d0) & values[row[2]]) ^ d0
        elif group.invert:  # NOT
            acc = ~values[row[0]]
        else:  # BUFF
            acc = values[row[0]]
        values[group.out] = acc
        return
    if reducer is not None:
        if in_idx.shape[1] == 2:
            acc = reducer(values[in_idx[:, 0]], values[in_idx[:, 1]])
        else:
            acc = reducer.reduce(values[in_idx], axis=1)
        if group.invert:
            np.invert(acc, out=acc)
        values[group.out] = acc
        return
    if group.gate_type is GateType.MUX:
        d0 = values[in_idx[:, 0]]
        # d0 XOR ((d0 XOR d1) AND sel): selects d1 where sel is set.
        acc = values[in_idx[:, 1]]
        np.bitwise_xor(acc, d0, out=acc)
        np.bitwise_and(acc, values[in_idx[:, 2]], out=acc)
        np.bitwise_xor(acc, d0, out=acc)
        values[group.out] = acc
        return
    if group.invert:  # NOT
        values[group.out] = ~values[in_idx[:, 0]]
        return
    values[group.out] = values[in_idx[:, 0]]  # BUFF


@dataclass(frozen=True)
class SequentialPlan:
    """How to simulate a sequential circuit while watching a set of rows.

    ``free`` evaluates the needed rows that read only the current input
    vector; ``state`` evaluates the needed rows with a DFF in their fan-in.
    ``dff_idx``/``dff_d_idx``/``dff_clk_idx`` are the row triples of the
    DFFs inside the needed set, aligned (no other DFF can reach a watched
    row).  Both sub-schedules are in level order.
    """

    free: Tuple[GateGroup, ...]
    state: Tuple[GateGroup, ...]
    dff_idx: np.ndarray
    dff_d_idx: np.ndarray
    dff_clk_idx: np.ndarray


class CompiledCircuit:
    """A circuit lowered to index arrays and a levelized group schedule.

    Combinational circuits get a pure feed-forward schedule.  Sequential
    circuits compile as well: DFF output nets are extra *source* rows (the
    caller loads the flip-flop state before :meth:`run_matrix`), and
    ``dff_idx``/``dff_d_idx``/``dff_clk_idx`` are the row triples of the
    edge-driven state update (:meth:`sequential_plan` restricts them to the
    DFFs a set of watched rows needs).
    """

    def __init__(self, circuit: Circuit) -> None:
        # Deliberately no reference to ``circuit`` is kept: compiled forms
        # are shared across circuit objects (fingerprint cache, copies) and
        # must not pin their source object alive or observe its mutations —
        # everything needed at runtime is lowered into arrays here.
        levels = circuit.levels()

        # Bucket gates by (level, type, arity); sources (PIs/constants/DFF
        # outputs) are kept apart because they have no evaluation step.
        sources: List[str] = []
        tie0_nets: List[str] = []
        tie1_nets: List[str] = []
        dff_nets: List[str] = []
        grouping: Dict[Tuple[int, GateType, int], List[str]] = {}
        for net in circuit.topological_order():
            gate = circuit.gate(net)
            gt = gate.gate_type
            if gt is GateType.INPUT:
                sources.append(net)
            elif gt is GateType.TIE0:
                sources.append(net)
                tie0_nets.append(net)
            elif gt is GateType.TIE1:
                sources.append(net)
                tie1_nets.append(net)
            elif gt is GateType.DFF:
                sources.append(net)
                dff_nets.append(net)
            else:
                grouping.setdefault((levels[net], gt, len(gate.inputs)), []).append(net)

        # Assign row indices in schedule order: sources first, then each group
        # as one contiguous run, so a group's scatter is a basic row slice.
        group_keys = sorted(
            grouping, key=lambda key: (key[0], key[1].value, key[2])
        )
        self.order: List[str] = list(sources)
        for key in group_keys:
            self.order.extend(grouping[key])
        self.index: Dict[str, int] = {net: i for i, net in enumerate(self.order)}
        self.n_nets = len(self.order)
        self.input_idx = np.array(
            [self.index[pi] for pi in circuit.inputs], dtype=np.intp
        )
        self.output_idx = np.array(
            [self.index[po] for po in circuit.outputs], dtype=np.intp
        )
        self.po_set = frozenset(self.output_idx.tolist())
        self.tie0_idx = np.array([self.index[n] for n in tie0_nets], dtype=np.intp)
        self.tie1_idx = np.array([self.index[n] for n in tie1_nets], dtype=np.intp)

        #: Sequential-schedule arrays: one entry per DFF, aligned.  State is a
        #: ``(n_dffs, n_words)`` matrix the caller owns; ``dff_idx`` are the
        #: rows the state is loaded into before a settle, ``dff_d_idx`` /
        #: ``dff_clk_idx`` are the settled rows the edge update reads.
        self.dff_names: Tuple[str, ...] = tuple(dff_nets)
        self.dff_idx = np.array([self.index[n] for n in dff_nets], dtype=np.intp)
        self.dff_d_idx = np.array(
            [self.index[circuit.gate(n).inputs[0]] for n in dff_nets], dtype=np.intp
        )
        self.dff_clk_idx = np.array(
            [self.index[circuit.gate(n).inputs[1]] for n in dff_nets], dtype=np.intp
        )
        self.is_sequential = bool(dff_nets)

        #: Per-row (gate_type, input row indices); None for source rows.
        #: Fault simulation's region table and fault-effect walks read it.
        self.node: List[object] = [None] * self.n_nets

        self.schedule: List[GateGroup] = []
        row = len(sources)
        for key in group_keys:
            level, gt, arity = key
            nets = grouping[key]
            in_rows = []
            for net in nets:
                rows = [self.index[src] for src in circuit.gate(net).inputs]
                in_rows.append(rows)
                self.node[self.index[net]] = (gt, tuple(rows))
            start, stop = row, row + len(nets)
            row = stop
            self.schedule.append(
                GateGroup(
                    level=level,
                    gate_type=gt,
                    out_idx=np.arange(start, stop, dtype=np.intp),
                    in_idx=np.array(in_rows, dtype=np.intp).reshape(len(nets), arity),
                    out=slice(start, stop),
                    reducer=_REDUCERS.get(gt),
                    invert=gt in _INVERTING,
                )
            )
        self._plan_cache: Dict[Tuple[int, ...], SequentialPlan] = {}

    @cached_property
    def readers(self) -> List[List[int]]:
        """Per row, the rows whose gates read it: one entry per reader,
        ascending.  Built from ``node`` on first use; fault-effect walks
        (:func:`repro.atpg.faultsim.propagate_forced`) follow it forward."""
        readers: List[List[int]] = [[] for _ in range(self.n_nets)]
        for row, node in enumerate(self.node):
            if node is not None:
                for src in set(node[1]):
                    readers[src].append(row)
        return readers

    # ------------------------------------------------------------------
    # full-circuit evaluation
    # ------------------------------------------------------------------
    def new_matrix(self, n_words: int) -> np.ndarray:
        """Fresh ``(n_nets, n_words)`` value matrix with constant rows set.

        Every non-constant row is either a PI row (the caller fills it) or is
        written by the schedule, so the bulk allocation stays uninitialized.
        """
        values = np.empty((self.n_nets, n_words), dtype=np.uint64)
        if self.input_idx.size:
            values[self.input_idx] = 0
        if self.tie0_idx.size:
            values[self.tie0_idx] = 0
        if self.tie1_idx.size:
            values[self.tie1_idx] = ALL_ONES
        if self.dff_idx.size:
            values[self.dff_idx] = 0  # reset state; quiescent-settle default
        return values

    def run_matrix(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the whole schedule in place; PI/constant rows must be set."""
        for group in self.schedule:
            _evaluate_group(group, values)
        return values

    def simulate_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Simulate ``(n_inputs, n_words)`` packed PI words; returns the matrix.

        Raises ``ValueError`` unless there is exactly one packed row per PI
        (one input column per PI before packing).
        """
        packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
        if packed_inputs.ndim == 1:
            packed_inputs = packed_inputs.reshape(-1, 1)
        if packed_inputs.shape[0] != self.input_idx.size:
            raise ValueError(
                f"expected {self.input_idx.size} input columns, "
                f"got {packed_inputs.shape[0]}"
            )
        n_words = packed_inputs.shape[1]
        values = self.new_matrix(n_words)
        if self.input_idx.size:
            values[self.input_idx] = packed_inputs
        return self.run_matrix(values)

    # ------------------------------------------------------------------
    # sequential plans
    # ------------------------------------------------------------------
    def sequential_plan(self, watched: Tuple[int, ...]) -> SequentialPlan:
        """The free/state split of the rows that ``watched`` rows need.

        Needed rows are the fan-in closure of ``watched``, crossing each DFF
        through its ``d`` and ``clk`` rows; state rows are the needed rows
        with a DFF in their fan-in (the DFF rows included), free rows are the
        rest.  Cached per watched tuple, up to ``_PLAN_CACHE_MAX`` plans.
        """
        plan = self._plan_cache.get(watched)
        if plan is not None:
            return plan
        dff_reads = {
            row: (d, clk)
            for row, d, clk in zip(
                self.dff_idx.tolist(), self.dff_d_idx.tolist(), self.dff_clk_idx.tolist()
            )
        }
        needed = set(watched)
        stack = list(needed)
        while stack:
            row = stack.pop()
            node = self.node[row]
            for src in node[1] if node is not None else dff_reads.get(row, ()):
                if src not in needed:
                    needed.add(src)
                    stack.append(src)
        # Rows are numbered in level order, so ascending order is topological.
        state: set = set()
        for row in sorted(needed):
            node = self.node[row]
            if row in dff_reads or (
                node is not None and any(src in state for src in node[1])
            ):
                state.add(row)
        dffs = np.array(
            [i for i, row in enumerate(self.dff_idx.tolist()) if row in needed],
            dtype=np.intp,
        )
        plan = SequentialPlan(
            free=self._subschedule_for_rows(sorted(needed - state)),
            state=self._subschedule_for_rows(sorted(state)),
            dff_idx=self.dff_idx[dffs],
            dff_d_idx=self.dff_d_idx[dffs],
            dff_clk_idx=self.dff_clk_idx[dffs],
        )
        if len(self._plan_cache) < _PLAN_CACHE_MAX:
            self._plan_cache[watched] = plan
        return plan

    def _subschedule_for_rows(self, rows: List[int]) -> Tuple[GateGroup, ...]:
        """Restrict the group schedule to the (sorted) member ``rows``."""
        groups: List[GateGroup] = []
        for group in self.schedule:
            # Each group owns one contiguous row run, so the member rows
            # inside it form one bisectable span.
            start, stop = group.out.start, group.out.stop
            lo = bisect_left(rows, start)
            hi = bisect_left(rows, stop)
            if hi == lo:
                continue
            if hi - lo == stop - start:
                groups.append(group)
                continue
            keep = np.array(rows[lo:hi], dtype=np.intp) - start
            out_idx = group.out_idx[keep]
            groups.append(
                replace(group, out_idx=out_idx, in_idx=group.in_idx[keep], out=out_idx)
            )
        return tuple(groups)


@dataclass
class CompileStats:
    """Counters for the compile-cache levels (see module docstring).

    ``patched_compiles`` always reads 0, since no compile derives from
    another; the key stays because ``perfbench`` reports it as its
    ``sim.compile.patched`` metric.
    """

    full_compiles: int = 0
    patched_compiles: int = 0
    fingerprint_hits: int = 0
    attached_hits: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "full_compiles": self.full_compiles,
            "patched_compiles": self.patched_compiles,
            "fingerprint_hits": self.fingerprint_hits,
            "attached_hits": self.attached_hits,
        }

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        return {k: v - before.get(k, 0) for k, v in self.snapshot().items()}


#: Process-wide compile counters; read with ``COMPILE_STATS.snapshot()``.
COMPILE_STATS = CompileStats()

#: Fingerprint-keyed LRU of compiled forms shared across circuit *objects*.
_SHARED_CACHE: "OrderedDict[str, CompiledCircuit]" = OrderedDict()
_SHARED_CACHE_MAX = 48

def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` through the attached / fingerprint caches.

    The result is memoized on the circuit object until it is mutated, and in
    a bounded fingerprint-keyed LRU shared across circuit objects, so copies
    and edit/revert round-trips never recompile cold.
    """
    cached = getattr(circuit, "_compiled_cache", None)
    if cached is not None:
        COMPILE_STATS.attached_hits += 1
        return cached
    key = circuit.structural_fingerprint()
    cached = _SHARED_CACHE.get(key)
    if cached is not None:
        COMPILE_STATS.fingerprint_hits += 1
        _SHARED_CACHE.move_to_end(key)
    else:
        cached = CompiledCircuit(circuit)
        COMPILE_STATS.full_compiles += 1
        _SHARED_CACHE[key] = cached
        while len(_SHARED_CACHE) > _SHARED_CACHE_MAX:
            _SHARED_CACHE.popitem(last=False)
    circuit._compiled_cache = cached
    return cached

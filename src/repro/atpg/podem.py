"""PODEM test-pattern generation for single stuck-at faults.

This is the deterministic core of the defender model (Synopsys TetraMAX in
the paper's flow).  The implementation is a textbook PODEM:

* *imply*: two-plane (good/faulty) three-valued forward simulation from the
  current PI assignment, with the faulty plane forced to the stuck value at
  the fault site.  It is event-driven: the planes persist across decisions
  of one fault, the PIs that changed since the previous call (decisions,
  flips and undone decisions alike) are re-applied, and only readers of nets
  whose value changed are re-evaluated, in topological order.  Three-valued
  simulation is a pure function of the assignment, so the planes equal a
  full re-simulation at every step;
* *objective*: excite the fault if unexcited, otherwise advance a gate on the
  D-frontier by setting one of its X inputs to the non-controlling value;
* *backtrace*: map the objective to a single PI assignment through an X-path;
* *backtrack*: flip the most recent untried decision.

The crucial knob for TrojanZero is ``backtrack_limit``: faults whose
excitation requires rare, conflict-heavy justification exhaust the budget and
come back :data:`PodemStatus.ABORTED` — these are the coverage holes the
attacker's circuit edits hide in (paper Sec. II-B.3).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gate import GateType
from .dcalc import CONTROLLING_VALUE, INVERTS, X, evaluate3
from .fault import StuckAtFault


class PodemStatus(enum.Enum):
    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    status: PodemStatus
    fault: StuckAtFault
    #: Complete test vector (PI name -> 0/1) when status is DETECTED; unassigned
    #: PIs are filled with 0 for determinism.
    test: Optional[Dict[str, int]] = None
    backtracks: int = 0
    decisions: int = 0

    @property
    def detected(self) -> bool:
        return self.status is PodemStatus.DETECTED


class PodemEngine:
    """Reusable PODEM engine for one combinational circuit.

    Nets are addressed by their position in the circuit's topological order;
    the two value planes are lists over those positions.
    """

    def __init__(self, circuit: Circuit, backtrack_limit: int = 50) -> None:
        if circuit.is_sequential:
            raise NetlistError("PODEM operates on combinational circuits only")
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        order = circuit.topological_order()
        pos = {net: i for i, net in enumerate(order)}
        levels = circuit.levels()
        self._order: List[str] = order
        self._pos: Dict[str, int] = pos
        self._level: List[int] = [levels[net] for net in order]
        self._type: List[GateType] = [circuit.gate(net).gate_type for net in order]
        self._fanin: List[Tuple[int, ...]] = [
            tuple(pos[src] for src in circuit.gate(net).inputs) for net in order
        ]
        self._fanout: List[Tuple[int, ...]] = [
            tuple(sorted({pos[reader] for reader in circuit.fanout(net)}))
            for net in order
        ]
        self._outputs: List[int] = sorted({pos[po] for po in circuit.outputs})
        self._is_output: List[bool] = [False] * len(order)
        for row in self._outputs:
            self._is_output[row] = True
        # Both planes with every PI at X (constants still propagate).
        self._unassigned: List[int] = [X] * len(order)
        for row, gt in enumerate(self._type):
            if gt is not GateType.INPUT:
                self._unassigned[row] = evaluate3(
                    gt, [self._unassigned[src] for src in self._fanin[row]]
                )
        # Per-generate() implication state (see _reset / _imply).
        self._good: List[int] = []
        self._faulty: List[int] = []
        self._applied: Dict[str, int] = {}
        self._site = -1
        self._stuck = X
        self._cone: List[int] = []

    # ------------------------------------------------------------------
    def generate(self, fault: StuckAtFault) -> PodemResult:
        """Try to generate a test for ``fault``."""
        circuit = self.circuit
        if not circuit.has_net(fault.net):
            raise NetlistError(f"fault site {fault.net!r} not in circuit")
        self._reset(fault)

        assignment: Dict[str, int] = {}
        # Decision stack entries: [pi, first_value, tried_alternative]
        decisions: List[List] = []
        backtracks = 0
        n_decisions = 0

        while True:
            good, faulty = self._imply(assignment, fault)
            if self._error_at_output(good, faulty):
                test = {pi: assignment.get(pi, 0) for pi in circuit.inputs}
                return PodemResult(
                    PodemStatus.DETECTED, fault, test, backtracks, n_decisions
                )

            objective = self._objective(good, faulty, fault)
            pi_choice: Optional[Tuple[str, int]] = None
            if objective is not None:
                pi_choice = self._backtrace(objective, good, assignment)

            if pi_choice is not None:
                pi, value = pi_choice
                decisions.append([pi, value, False])
                assignment[pi] = value
                n_decisions += 1
                continue

            # Dead end: no objective or backtrace failed — backtrack.
            flipped = False
            while decisions:
                entry = decisions[-1]
                pi, value, tried = entry
                if not tried:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return PodemResult(
                            PodemStatus.ABORTED, fault, None, backtracks, n_decisions
                        )
                    entry[2] = True
                    assignment[pi] = 1 - value
                    flipped = True
                    break
                decisions.pop()
                del assignment[pi]
            if not flipped:
                return PodemResult(
                    PodemStatus.UNTESTABLE, fault, None, backtracks, n_decisions
                )

    # ------------------------------------------------------------------
    def _reset(self, fault: StuckAtFault) -> None:
        """Start implication for ``fault`` from the all-X assignment."""
        site = self._pos[fault.net]
        self._site, self._stuck = site, fault.value
        self._good = list(self._unassigned)
        self._faulty = list(self._unassigned)
        self._applied = {}
        # Only the site's fanout cone can carry a fault effect.
        fanout, seen, stack = self._fanout, {site}, [site]
        while stack:
            for reader in fanout[stack.pop()]:
                if reader not in seen:
                    seen.add(reader)
                    stack.append(reader)
        seen.discard(site)
        self._cone = sorted(seen)
        self._faulty[site] = fault.value  # the net is stuck, unconditionally
        if fault.value != self._unassigned[site]:
            self._propagate(list(fanout[site]))

    def _imply(
        self, assignment: Dict[str, int], fault: StuckAtFault
    ) -> Tuple[List[int], List[int]]:
        """Two-plane 3-valued forward simulation, event-driven.

        The planes persist across calls within one :meth:`generate`: only the
        PIs whose value differs from the previous call (new decisions, flips
        and undone decisions alike) are re-applied, and only the readers of
        nets whose value changed on either plane are re-evaluated.
        """
        good, faulty, pos = self._good, self._faulty, self._pos
        site, stuck = self._site, self._stuck
        applied = self._applied
        changed = [pi for pi in applied if pi not in assignment]
        changed.extend(
            pi for pi, value in assignment.items() if applied.get(pi) != value
        )
        events: List[int] = []
        for pi in changed:
            row = pos[pi]
            value = assignment.get(pi, X)
            f_val = stuck if row == site else value
            if good[row] != value or faulty[row] != f_val:
                good[row], faulty[row] = value, f_val
                events.extend(self._fanout[row])
        self._applied = dict(assignment)
        if events:
            self._propagate(events)
        return good, faulty

    def _propagate(self, events: List[int]) -> None:
        """Re-evaluate ``events`` and, transitively, readers of changed nets,
        in topological order."""
        good, faulty = self._good, self._faulty
        types, fanin, fanout = self._type, self._fanin, self._fanout
        site, stuck = self._site, self._stuck
        queued = set(events)
        heap = list(queued)
        heapq.heapify(heap)
        while heap:
            row = heapq.heappop(heap)
            gt, ins = types[row], fanin[row]
            g_val = evaluate3(gt, [good[i] for i in ins])
            if row == site:
                f_val = stuck
            else:
                f_val = evaluate3(gt, [faulty[i] for i in ins])
            if g_val != good[row] or f_val != faulty[row]:
                good[row], faulty[row] = g_val, f_val
                for reader in fanout[row]:
                    if reader not in queued:
                        queued.add(reader)
                        heapq.heappush(heap, reader)

    def _error_at_output(self, good: List[int], faulty: List[int]) -> bool:
        for po in self._outputs:
            g, f = good[po], faulty[po]
            if g != X and f != X and g != f:
                return True
        return False

    def _objective(
        self,
        good: List[int],
        faulty: List[int],
        fault: StuckAtFault,
    ) -> Optional[Tuple[int, int]]:
        """Next (net position, value) goal, or None if the search hit a dead end."""
        site_good = good[self._site]
        if site_good == X:
            # Excite the fault: drive the site to the opposite of the stuck value.
            return (self._site, 1 - fault.value)
        if site_good == fault.value:
            # Fault cannot be excited under this assignment — conflict.
            return None

        frontier = self._d_frontier(good, faulty)
        if not frontier:
            return None
        if not self._x_path_exists(good, faulty, frontier):
            return None
        # Advance the frontier gate closest to an output (smallest remaining
        # depth ≈ largest level is a decent proxy for "closest to PO").
        frontier.sort(key=lambda row: -self._level[row])
        gate = frontier[0]
        ctrl = CONTROLLING_VALUE.get(self._type[gate])
        target = 1 - ctrl if ctrl is not None else 1
        for src in self._fanin[gate]:
            if good[src] == X or faulty[src] == X:
                return (src, target)
        return None

    def _d_frontier(self, good: List[int], faulty: List[int]) -> List[int]:
        """Gates whose output is still X on either plane but carry a D input.

        Only the fault site's fanout cone can hold such gates; it is scanned
        in topological order.
        """
        frontier = []
        fanin = self._fanin
        for row in self._cone:
            if good[row] != X and faulty[row] != X:
                continue
            for src in fanin[row]:
                g, f = good[src], faulty[src]
                if g != X and f != X and g != f:
                    frontier.append(row)
                    break
        return frontier

    def _x_path_exists(
        self,
        good: List[int],
        faulty: List[int],
        frontier: List[int],
    ) -> bool:
        """Can some frontier gate still reach a PO through undetermined nets?"""
        stack = list(frontier)
        seen = set()
        while stack:
            row = stack.pop()
            if row in seen:
                continue
            seen.add(row)
            if self._is_output[row]:
                return True  # every stacked net is undetermined
            for reader in self._fanout[row]:
                if good[reader] == X or faulty[reader] == X:
                    stack.append(reader)
        return False

    def _backtrace(
        self,
        objective: Tuple[int, int],
        good: List[int],
        assignment: Dict[str, int],
    ) -> Optional[Tuple[str, int]]:
        """Walk the objective back to an unassigned PI through X-valued nets."""
        row, value = objective
        guard = 0
        max_steps = len(self._order) + 8
        while True:
            guard += 1
            if guard > max_steps:
                return None
            gt, ins = self._type[row], self._fanin[row]
            if gt is GateType.INPUT:
                net = self._order[row]
                if net in assignment:
                    return None  # objective asks to re-drive a decided PI
                return (net, value)
            if gt in (GateType.TIE0, GateType.TIE1):
                return None  # constants cannot be justified
            if gt in (GateType.NOT,):
                row, value = ins[0], 1 - value
                continue
            if gt is GateType.BUFF:
                row = ins[0]
                continue
            if gt is GateType.MUX:
                d0, d1, sel = ins
                if good[sel] == 0:
                    row = d0
                elif good[sel] == 1:
                    row = d1
                else:
                    # Decide the select first; pick the branch whose data is
                    # already compatible if visible, else branch 0.
                    row, value = sel, 0
                continue
            if gt in (GateType.XOR, GateType.XNOR):
                parity = 1 if gt is GateType.XNOR else 0
                unknown = None
                for src in ins:
                    if good[src] == X:
                        if unknown is None:
                            unknown = src
                    else:
                        parity ^= good[src]
                if unknown is None:
                    return None
                row, value = unknown, value ^ parity
                continue
            # AND/NAND/OR/NOR
            ctrl = CONTROLLING_VALUE[gt]
            inverts = INVERTS[gt]
            needed = (1 - value) if inverts else value
            x_inputs = [s for s in ins if good[s] == X]
            if not x_inputs:
                return None
            if needed == ctrl:
                # One controlling input suffices: take the easiest (lowest level).
                row, value = min(x_inputs, key=self._level.__getitem__), ctrl
            else:
                # All inputs must be non-controlling: justify the hardest first.
                row, value = max(x_inputs, key=self._level.__getitem__), 1 - ctrl


def generate_test(
    circuit: Circuit, fault: StuckAtFault, backtrack_limit: int = 50
) -> PodemResult:
    """One-shot convenience wrapper."""
    return PodemEngine(circuit, backtrack_limit).generate(fault)

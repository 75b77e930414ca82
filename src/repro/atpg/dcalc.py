"""Three-valued logic for the D-calculus, resolved per gate type.

PODEM tracks two parallel planes — the *good* circuit and the *faulty*
circuit — each in three-valued logic {0, 1, X}.  The classic five D-calculus
symbols fall out of the pair: D = (good 1, faulty 0), D̄ = (0, 1), and 0/1/X
when the planes agree.

Values are plain ints: 0, 1, and :data:`X` (= 2), so the values of a gate's
``k`` inputs, read as a base-3 number, index its :func:`truth_table` of
``3**k`` outputs.  PODEM evaluates 1- and 2-input gates through those tables
and wider gates through the per-type :data:`EVALUATE` functions, both looked
up once per net when the engine is built.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Sequence, Tuple

from ..netlist.gate import GateType

#: The unknown value.
X = 2


def _controlled(ctrl: int, inverts: int) -> Callable[[Sequence[int]], int]:
    """AND/NAND/OR/NOR: a controlling input decides, then X, else the free value."""
    out_ctrl, out_free = ctrl ^ inverts, (1 - ctrl) ^ inverts

    def evaluate(values: Sequence[int]) -> int:
        if ctrl in values:
            return out_ctrl
        if X in values:
            return X
        return out_free

    return evaluate


def _parity(inverts: int) -> Callable[[Sequence[int]], int]:
    """XOR/XNOR (and BUFF/NOT as their 1-input case): any X poisons the parity."""

    def evaluate(values: Sequence[int]) -> int:
        if X in values:
            return X
        return (sum(values) & 1) ^ inverts

    return evaluate


def _mux(values: Sequence[int]) -> int:
    d0, d1, sel = values
    if sel == X:
        return d0 if d0 == d1 else X  # agreeing known branches still decide
    return d1 if sel else d0


#: 3-valued evaluation per combinational gate type, over any input count.
EVALUATE: Dict[GateType, Callable[[Sequence[int]], int]] = {
    GateType.AND: _controlled(0, 0),
    GateType.NAND: _controlled(0, 1),
    GateType.OR: _controlled(1, 0),
    GateType.NOR: _controlled(1, 1),
    GateType.XOR: _parity(0),
    GateType.XNOR: _parity(1),
    GateType.NOT: _parity(1),
    GateType.BUFF: _parity(0),
    GateType.MUX: _mux,
    GateType.TIE0: lambda values: 0,
    GateType.TIE1: lambda values: 1,
}


def truth_table(gate_type: GateType, arity: int) -> Tuple[int, ...]:
    """Outputs of a ``gate_type`` gate with ``arity`` inputs for every input
    combination, indexed by the input values read as a base-3 number (first
    input most significant): ``table[a * 3 + b]`` for two inputs."""
    evaluate = EVALUATE[gate_type]
    return tuple(
        evaluate(values) for values in itertools.product((0, 1, X), repeat=arity)
    )


#: Controlling input value per gate family (None when no single value controls).
CONTROLLING_VALUE: Dict[GateType, int] = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}

#: Does the gate invert its natural AND/OR/XOR core?
INVERTS: Dict[GateType, bool] = {
    GateType.AND: False,
    GateType.NAND: True,
    GateType.OR: False,
    GateType.NOR: True,
    GateType.XOR: False,
    GateType.XNOR: True,
    GateType.NOT: True,
    GateType.BUFF: False,
}

"""Structural netlist transforms.

These implement the circuit-editing moves the TrojanZero flow relies on:

* :func:`tie_net_to_constant` — the core move of Algorithm 1: replace the
  driver of a net by a TIE0/TIE1 cell ("connect the node to logic 0/1").
* :func:`strip_dead_logic` — remove gates whose output no longer reaches any
  primary output ("each of the previous gates is eliminated safely if its
  output is not connected to any other node of the circuit").
* :func:`optimize_netlist` — the cleanup a power-optimizing synthesis tool
  performs on the HT-free circuit (constant folding, buffer and
  double-inverter collapse, dead-logic removal) in one forward pass; the
  folding rules are :func:`_fold_gate`'s.

The editing moves mutate the circuit they are given; call ``circuit.copy()``
first to preserve the original (Algorithm 1 reverts failed removals this
way).  :func:`optimize_netlist` returns a new circuit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .circuit import Circuit, NetlistError
from .gate import Gate, GateType

#: Identity / dominance behaviour of a constant on each variadic gate type:
#: maps (gate_type, constant_value) -> "dominate0"/"dominate1"/"drop".
_CONST_BEHAVIOUR = {
    (GateType.AND, 0): "dominate0",
    (GateType.AND, 1): "drop",
    (GateType.NAND, 0): "dominate1",
    (GateType.NAND, 1): "drop",
    (GateType.OR, 1): "dominate1",
    (GateType.OR, 0): "drop",
    (GateType.NOR, 1): "dominate0",
    (GateType.NOR, 0): "drop",
}


def tie_net_to_constant(circuit: Circuit, net: str, value: int) -> None:
    """Replace the driver of ``net`` with a TIE0/TIE1 constant cell.

    The fan-in of the original driver is left in place; follow up with
    :func:`strip_dead_logic` to harvest unobservable gates (Algorithm 1 line
    14: "Remove preceding gates and update circuit").
    """
    if value not in (0, 1):
        raise ValueError(f"constant must be 0 or 1, got {value!r}")
    tie = GateType.TIE1 if value else GateType.TIE0
    circuit.replace_gate(net, tie, ())


def strip_dead_logic(circuit: Circuit, protect: Iterable[str] = ()) -> List[str]:
    """Remove every logic gate that cannot reach a primary output.

    Primary inputs are never removed (their pads exist regardless).  Returns
    the names of removed gates in removal order.
    """
    protected: Set[str] = set(protect) | set(circuit.outputs)
    live: Set[str] = set()
    stack = [n for n in protected if circuit.has_net(n)]
    while stack:
        net = stack.pop()
        if net in live:
            continue
        live.add(net)
        stack.extend(circuit.gate(net).inputs)

    # Peel dead gates in reverse-topological waves (a gate goes once nothing
    # reads it), counting readers locally; the circuit is edited once.
    dead = [g.name for g in circuit.gates() if not g.is_input and g.name not in live]
    readers = {net: len(circuit.fanout(net)) for net in dead}
    removed: List[str] = []
    while True:
        wave = len(removed)
        remaining: List[str] = []
        for net in dead:
            if readers[net]:
                remaining.append(net)
                continue
            removed.append(net)
            for src in dict.fromkeys(circuit.gate(net).inputs):
                if src in readers:
                    readers[src] -= 1
        if len(removed) == wave:
            break
        dead = remaining
    circuit.remove_gates(removed)
    return removed


def optimize_netlist(circuit: Circuit) -> Circuit:
    """Return a min-power-synthesized copy of ``circuit``.

    Mirrors what Design Compiler does before the defender characterizes the
    HT-free circuit: constants are folded through downstream logic, buffer
    and double-inverter chains collapse, and logic that cannot reach an
    output is stripped.  Without this, trivially foldable gates would survive
    into ``N`` and inflate Algorithm 1's salvage numbers dishonestly.

    One pass in topological order rewrites each gate once.  Its inputs are
    read through ``rep`` (the net a reader reads instead of a collapsed
    one), TIE inputs fold by :func:`_fold_gate`, and a BUFF or the outer NOT
    of ``NOT(NOT(x))`` that is not a primary output becomes a ``rep`` entry
    instead of a gate.  DFFs are never folded; they read nets later in the
    order, so their inputs go through ``rep`` at the end.  Survivors keep
    the input's gate-map order, and dead logic goes in one final strip.
    """
    outputs = set(circuit.outputs)
    rep: Dict[str, str] = {}
    const_nets: Dict[str, int] = {}
    kept: Dict[str, Gate] = {}
    for net in circuit.topological_order():
        gate = circuit.gate(net)
        if gate.is_input or gate.is_sequential:
            kept[net] = gate
            continue
        if any(i in rep for i in gate.inputs):
            gate = gate.with_inputs([rep.get(i, i) for i in gate.inputs])
        if any(i in const_nets for i in gate.inputs):
            folded = _fold_gate(gate, const_nets)
            if folded is not None:
                gate = Gate(net, *folded)
        if gate.is_constant:
            const_nets[net] = 1 if gate.gate_type is GateType.TIE1 else 0
        elif net not in outputs:
            if gate.gate_type is GateType.BUFF:
                rep[net] = gate.inputs[0]
                continue
            if gate.gate_type is GateType.NOT:
                inner = kept[gate.inputs[0]]
                if inner.gate_type is GateType.NOT:
                    rep[net] = inner.inputs[0]
                    continue
        kept[net] = gate

    gates: Dict[str, Gate] = {}
    for net in circuit.nets:
        if net in kept:
            gate = kept[net]
            if gate.is_sequential:
                gate = gate.with_inputs([rep.get(i, i) for i in gate.inputs])
            gates[net] = gate
    optimized = circuit.copy()
    if gates != optimized._gates:
        optimized._gates = gates
        optimized._invalidate()
    strip_dead_logic(optimized)
    return optimized


def _fold_gate(
    gate: Gate, const_nets: Dict[str, int]
) -> Optional[Tuple[GateType, Tuple[str, ...]]]:
    """Compute the simplified (type, inputs) for a gate with constant inputs.

    Returns ``None`` if no simplification applies.
    """
    gt = gate.gate_type
    if gt in (GateType.NOT, GateType.BUFF):
        src = gate.inputs[0]
        if src in const_nets:
            value = const_nets[src]
            if gt is GateType.NOT:
                value = 1 - value
            return (GateType.TIE1 if value else GateType.TIE0, ())
        return None

    if gt is GateType.MUX:
        d0, d1, sel = gate.inputs
        if sel in const_nets:
            chosen = d1 if const_nets[sel] else d0
            if chosen in const_nets:
                return (GateType.TIE1 if const_nets[chosen] else GateType.TIE0, ())
            return (GateType.BUFF, (chosen,))
        if d0 in const_nets and d1 in const_nets:
            v0, v1 = const_nets[d0], const_nets[d1]
            if v0 == v1:
                return (GateType.TIE1 if v0 else GateType.TIE0, ())
            if v0 == 0 and v1 == 1:
                return (GateType.BUFF, (sel,))
            return (GateType.NOT, (sel,))
        return None

    if gt in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
        remaining: List[str] = []
        for src in gate.inputs:
            if src in const_nets:
                behaviour = _CONST_BEHAVIOUR[(gt, const_nets[src])]
                if behaviour == "dominate0":
                    return (GateType.TIE0, ())
                if behaviour == "dominate1":
                    return (GateType.TIE1, ())
                # "drop": identity element, skip the constant input
            else:
                remaining.append(src)
        if len(remaining) == len(gate.inputs):
            return None
        inverting = gt in (GateType.NAND, GateType.NOR)
        if not remaining:
            # All inputs were identity constants: AND()=1, NAND()=0, OR()=0, NOR()=1.
            base = 1 if gt in (GateType.AND, GateType.NAND) else 0
            value = 1 - base if inverting else base
            return (GateType.TIE1 if value else GateType.TIE0, ())
        if len(remaining) == 1:
            return (GateType.NOT if inverting else GateType.BUFF, (remaining[0],))
        return (gt, tuple(remaining))

    if gt in (GateType.XOR, GateType.XNOR):
        parity = 0
        remaining = []
        for src in gate.inputs:
            if src in const_nets:
                parity ^= const_nets[src]
            else:
                remaining.append(src)
        if len(remaining) == len(gate.inputs):
            return None
        invert = (gt is GateType.XNOR) ^ (parity == 1)
        if not remaining:
            return (GateType.TIE1 if invert else GateType.TIE0, ())
        if len(remaining) == 1:
            return (GateType.NOT if invert else GateType.BUFF, (remaining[0],))
        return (GateType.XNOR if invert else GateType.XOR, tuple(remaining))

    return None


def insert_mux_on_net(
    circuit: Circuit,
    victim: str,
    alternate: str,
    select: str,
    mux_name: Optional[str] = None,
) -> str:
    """Splice a 2:1 MUX onto ``victim``: readers see MUX(victim, alternate, select).

    This is the payload mechanism of the Fig. 4 Trojan — when ``select`` is 0
    the circuit behaves normally; when the trigger raises ``select`` the
    corrupted ``alternate`` value drives the victim's fanout.

    Readers inside the fan-in cones of ``alternate`` or ``select`` keep the
    original connection: rewiring them would wrap the MUX's own inputs around
    its output and create a combinational cycle (e.g. the inverting payload's
    ``NOT(victim)`` gate must keep reading the raw victim).

    When the victim is a primary output, the chip's pad keeps its name: the
    original driver is renamed ``<victim>_pre`` and the MUX takes over the
    victim's name, so the circuit interface is unchanged (the defender
    compares outputs by position/name).

    Returns the name of the new MUX net.
    """
    if not circuit.has_net(victim):
        raise NetlistError(f"victim net {victim!r} does not exist")
    renamed_output = False
    if victim in circuit.outputs:
        pre = _fresh_name(circuit, f"{victim}_pre")
        circuit.rename_net(victim, pre)  # also fixes alternate/select references
        alternate = pre if alternate == victim else alternate
        select = pre if select == victim else select
        mux = victim
        victim = pre
        renamed_output = True
    else:
        mux = mux_name or _fresh_name(circuit, f"{victim}_tz_mux")
    excluded = _combinational_fanin(circuit, alternate) | _combinational_fanin(
        circuit, select
    )
    readers = [r for r in circuit.fanout(victim) if r not in excluded]
    circuit.add_gate(mux, GateType.MUX, (victim, alternate, select))
    for reader in readers:
        circuit.rewire_input(reader, victim, mux)
    if renamed_output:
        # rename_net left the pre-MUX net on the output list; the pad belongs
        # to the MUX (which carries the original name).
        circuit.unset_output(victim)
        circuit.set_output(mux)
    return mux


def _combinational_fanin(circuit: Circuit, net: str) -> Set[str]:
    """Fan-in cone of ``net`` that stops at sequential elements.

    Only combinational paths can form illegal cycles; a DFF legitimately
    breaks the loop (the Fig. 4 counter is clocked *by* host logic that the
    payload MUX may feed).
    """
    cone: Set[str] = set()
    stack = [net]
    while stack:
        current = stack.pop()
        if current in cone:
            continue
        cone.add(current)
        gate = circuit.gate(current)
        if gate.is_sequential:
            continue
        stack.extend(gate.inputs)
    return cone


def _fresh_name(circuit: Circuit, base: str) -> str:
    """Return ``base`` or ``base_k`` — the first name not already in use."""
    if not circuit.has_net(base):
        return base
    k = 2
    while circuit.has_net(f"{base}_{k}"):
        k += 1
    return f"{base}_{k}"

"""The :class:`Circuit` container: a gate-level netlist as a named DAG.

A circuit is a set of :class:`~repro.netlist.gate.Gate` records keyed by the
net they drive, plus declared primary inputs and primary outputs.  Combinational
cycles are illegal; sequential loops through DFFs are allowed (the DFF breaks
the timing loop).

Design notes
------------
* Every net has exactly one driver (the gate of the same name).  Primary
  inputs are gates of type ``INPUT``.
* Fanout maps, topological order, and levels are computed lazily and cached;
  any mutation invalidates the caches.
* The container is deliberately mutable — Algorithm 1 of the paper repeatedly
  edits and reverts the circuit — but :meth:`copy` is cheap and transforms in
  :mod:`repro.netlist.transform` work on copies by default.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .gate import Gate, GateType


class NetlistError(Exception):
    """Raised for structurally invalid netlist operations."""


class Circuit:
    """A gate-level netlist.

    Parameters
    ----------
    name:
        Human-readable circuit name (e.g. ``"c880"``).
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._gates: Dict[str, Gate] = {}
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._topo_cache: Optional[List[str]] = None
        self._fanout_cache: Optional[Dict[str, Tuple[str, ...]]] = None
        self._level_cache: Optional[Dict[str, int]] = None
        # Compiled levelized form (repro.sim.compiled); owned by that module,
        # stored here so structural mutations drop it with the other caches.
        self._compiled_cache = None
        self._fingerprint_cache: Optional[str] = None
        self._sequential_cache: Optional[bool] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input net."""
        if name in self._gates:
            raise NetlistError(f"net {name!r} already exists")
        self._gates[name] = Gate(name, GateType.INPUT)
        self._inputs.append(name)
        self._invalidate()
        return name

    def add_gate(self, name: str, gate_type: GateType, inputs: Sequence[str] = ()) -> str:
        """Add a gate driving net ``name``; input nets need not exist yet."""
        if name in self._gates:
            raise NetlistError(f"net {name!r} already exists")
        if gate_type is GateType.INPUT:
            raise NetlistError("use add_input() for primary inputs")
        self._gates[name] = Gate(name, gate_type, tuple(inputs))
        self._invalidate()
        return name

    def set_output(self, name: str) -> None:
        """Mark a net as a primary output (idempotent)."""
        if name not in self._outputs:
            self._outputs.append(name)
        self._invalidate()

    def unset_output(self, name: str) -> None:
        if name in self._outputs:
            self._outputs.remove(name)
        self._invalidate()

    def remove_gate(self, name: str) -> Gate:
        """Remove the gate driving ``name``.  Fails on primary outputs or nets
        that still have fanout."""
        return self.remove_gates([name])[0]

    def remove_gates(self, names: Iterable[str]) -> List[Gate]:
        """Remove the gates driving ``names`` in one edit; returns them in
        the given order.

        The set is checked once, before anything changes: every name is
        driven, none is a primary output, and no gate outside the set reads
        one inside it (gates of the set may read each other).
        """
        doomed = list(names)
        if not doomed:
            return []
        doomed_set = set(doomed)
        if len(doomed_set) != len(doomed):
            raise NetlistError("remove_gates() given a name twice")
        for name in doomed:
            if name not in self._gates:
                raise NetlistError(f"no gate drives {name!r}")
            if name in self._outputs:
                raise NetlistError(f"{name!r} is a primary output; unset it first")
            survivors = [r for r in self.fanout(name) if r not in doomed_set]
            if survivors:
                raise NetlistError(f"{name!r} still feeds {sorted(survivors)}")
        removed = [self._gates.pop(name) for name in doomed]
        if any(gate.is_input for gate in removed):
            self._inputs = [n for n in self._inputs if n not in doomed_set]
        self._invalidate()
        return removed

    def replace_gate(self, name: str, gate_type: GateType, inputs: Sequence[str] = ()) -> None:
        """Swap the driver of ``name`` for a new gate (fanout is preserved)."""
        if name not in self._gates:
            raise NetlistError(f"no gate drives {name!r}")
        old = self._gates[name]
        if old.is_input:
            raise NetlistError("cannot replace a primary input; remove it instead")
        if gate_type is GateType.INPUT:
            raise NetlistError("cannot convert an internal net into a primary input")
        self._gates[name] = Gate(name, gate_type, tuple(inputs))
        self._invalidate()

    def rewire_input(self, gate_name: str, old_net: str, new_net: str) -> None:
        """Redirect every occurrence of ``old_net`` in ``gate_name``'s inputs."""
        gate = self.gate(gate_name)
        if old_net not in gate.inputs:
            raise NetlistError(f"{gate_name!r} does not read {old_net!r}")
        new_inputs = tuple(new_net if net == old_net else net for net in gate.inputs)
        self._gates[gate_name] = gate.with_inputs(new_inputs)
        self._invalidate()

    def rename_net(self, old: str, new: str) -> None:
        """Rename a net everywhere (driver, fanout references, PI/PO lists)."""
        if old not in self._gates:
            raise NetlistError(f"no gate drives {old!r}")
        if new in self._gates:
            raise NetlistError(f"net {new!r} already exists")
        gate = self._gates.pop(old)
        self._gates[new] = Gate(new, gate.gate_type, gate.inputs)
        for name, g in list(self._gates.items()):
            if old in g.inputs:
                self._gates[name] = g.with_inputs(
                    tuple(new if net == old else net for net in g.inputs)
                )
        self._inputs = [new if n == old else n for n in self._inputs]
        self._outputs = [new if n == old else n for n in self._outputs]
        self._invalidate()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self._outputs)

    @property
    def nets(self) -> Tuple[str, ...]:
        return tuple(self._gates)

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"no gate drives {name!r}") from None

    def has_net(self, name: str) -> bool:
        return name in self._gates

    def gates(self) -> Iterator[Gate]:
        """All gates, including INPUT pseudo-gates."""
        return iter(self._gates.values())

    def logic_gates(self) -> Iterator[Gate]:
        """Gates that are real logic (not primary inputs)."""
        return (g for g in self._gates.values() if not g.is_input)

    def __len__(self) -> int:
        return len(self._gates)

    @property
    def num_logic_gates(self) -> int:
        return sum(1 for _ in self.logic_gates())

    @property
    def is_sequential(self) -> bool:
        if self._sequential_cache is None:
            self._sequential_cache = any(
                g.is_sequential for g in self._gates.values()
            )
        return self._sequential_cache

    def fanout(self, net: str) -> Tuple[str, ...]:
        """Names of gates that read ``net``."""
        return self._fanout_map().get(net, ())

    def _fanout_map(self) -> Dict[str, Tuple[str, ...]]:
        if self._fanout_cache is None:
            builder: Dict[str, List[str]] = {name: [] for name in self._gates}
            for gate in self._gates.values():
                for net in gate.inputs:
                    if net not in builder:
                        raise NetlistError(
                            f"gate {gate.name!r} reads undriven net {net!r}"
                        )
                    if gate.name not in builder[net]:
                        builder[net].append(gate.name)
            self._fanout_cache = {k: tuple(v) for k, v in builder.items()}
        return self._fanout_cache

    def topological_order(self) -> List[str]:
        """Net names in topological order (DFF outputs act as sources).

        Raises :class:`NetlistError` if a combinational cycle exists.
        """
        if self._topo_cache is None:
            indegree: Dict[str, int] = {}
            for name, gate in self._gates.items():
                if gate.is_input or gate.is_sequential or gate.is_constant:
                    indegree[name] = 0
                else:
                    indegree[name] = len(set(gate.inputs))
            ready = deque(sorted(n for n, d in indegree.items() if d == 0))
            fanout = self._fanout_map()
            order: List[str] = []
            seen_edge: Set[Tuple[str, str]] = set()
            while ready:
                net = ready.popleft()
                order.append(net)
                for reader in fanout[net]:
                    gate = self._gates[reader]
                    if gate.is_sequential:
                        continue  # DFFs never wait on their inputs
                    key = (net, reader)
                    if key in seen_edge:
                        continue
                    seen_edge.add(key)
                    indegree[reader] -= 1
                    if indegree[reader] == 0:
                        ready.append(reader)
            if len(order) != len(self._gates):
                stuck = sorted(set(self._gates) - set(order))
                raise NetlistError(f"combinational cycle through {stuck[:8]}")
            self._topo_cache = order
        return list(self._topo_cache)

    def levels(self) -> Dict[str, int]:
        """Logic depth of every net (PIs/constants/DFF outputs at level 0)."""
        if self._level_cache is None:
            levels: Dict[str, int] = {}
            for net in self.topological_order():
                gate = self._gates[net]
                if gate.is_input or gate.is_constant or gate.is_sequential:
                    levels[net] = 0
                else:
                    levels[net] = 1 + max(levels[i] for i in gate.inputs)
            self._level_cache = levels
        return dict(self._level_cache)

    def depth(self) -> int:
        """Maximum logic depth of the circuit."""
        lv = self.levels()
        return max(lv.values()) if lv else 0

    def fanin_cone(self, net: str) -> Set[str]:
        """All nets in the transitive fan-in of ``net`` (inclusive)."""
        cone: Set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(self.gate(current).inputs)
        return cone

    def fanout_cone(self, net: str) -> Set[str]:
        """All nets in the transitive fan-out of ``net`` (inclusive)."""
        cone: Set[str] = set()
        stack = [net]
        fanout = self._fanout_map()
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(fanout.get(current, ()))
        return cone

    def internal_nets(self) -> List[str]:
        """Nets driven by logic gates (not PIs)."""
        return [g.name for g in self.logic_gates()]

    def structural_fingerprint(self) -> str:
        """Stable hash of the netlist structure (gates + PI/PO interfaces).

        Two circuits with equal fingerprints are structurally identical —
        same gate map, same input order, same output order — regardless of
        their ``name``.  The fingerprint keys the shared compile cache in
        :mod:`repro.sim.compiled`, so unmutated copies (and edit/revert
        round-trips) reuse one compiled schedule.  Cached; any structural
        mutation invalidates it along with the other caches.
        """
        if self._fingerprint_cache is None:
            h = hashlib.blake2b(digest_size=16)
            h.update("|".join(self._inputs).encode())
            h.update(b"\x00")
            h.update("|".join(self._outputs).encode())
            for name in sorted(self._gates):
                gate = self._gates[name]
                h.update(
                    f"\x00{name}\x01{gate.gate_type.value}\x01"
                    f"{','.join(gate.inputs)}".encode()
                )
            self._fingerprint_cache = h.hexdigest()
        return self._fingerprint_cache

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep-enough copy: gates are immutable, so copying the maps suffices.

        Derived caches travel with the copy: the structures they describe are
        identical until either circuit mutates, and mutation invalidates them
        on the mutated side only (caches are replaced wholesale, never edited
        in place).  In particular the compiled simulation schedule is shared,
        so ``BitSimulator(circuit.copy())`` does not recompile cold.
        """
        dup = Circuit(name or self.name)
        dup._gates = dict(self._gates)
        dup._inputs = list(self._inputs)
        dup._outputs = list(self._outputs)
        dup._topo_cache = self._topo_cache
        dup._fanout_cache = self._fanout_cache
        dup._level_cache = self._level_cache
        dup._compiled_cache = self._compiled_cache
        dup._fingerprint_cache = self._fingerprint_cache
        dup._sequential_cache = self._sequential_cache
        return dup

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._fanout_cache = None
        self._level_cache = None
        self._compiled_cache = None
        self._fingerprint_cache = None
        self._sequential_cache = None

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, net: str) -> bool:
        return net in self._gates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}: {len(self._inputs)} PI, {len(self._outputs)} PO, "
            f"{self.num_logic_gates} gates)"
        )

    def stats(self) -> Dict[str, int]:
        """Gate-type histogram plus summary counts."""
        hist: Dict[str, int] = {}
        for gate in self.logic_gates():
            hist[gate.gate_type.value] = hist.get(gate.gate_type.value, 0) + 1
        hist["#inputs"] = len(self._inputs)
        hist["#outputs"] = len(self._outputs)
        hist["#gates"] = self.num_logic_gates
        return hist

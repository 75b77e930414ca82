"""Light synthesis: technology mapping and min-power drive selection.

The paper synthesizes each circuit "using the technology library while
optimizing it for minimum power" (Sec. II-A.2).  This module provides the
part of that flow the cost model needs:

* :func:`optimize_netlist` — netlist cleanup a power-optimizing tool performs
  (constant folding, buffer and double-inverter collapse, dead-logic
  removal).  It lives in :mod:`repro.netlist.transform` beside the folding
  rules and is re-exported here as the synthesis step.  Phase A runs it on
  the HT-free circuit only: Algorithm 1's tie-to-constant edits are physical
  edits on the fabricated netlist, and the tie cell plus its fanout gates
  remain.
* :func:`map_circuit` — assign every logic gate a list of library cells
  (decomposing over-wide gates into trees) and pick the smallest drive
  strength that carries the gate's fanout load, iterating because drive
  choices change pin loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gate import Gate
from ..netlist.transform import optimize_netlist  # noqa: F401 — re-exported
from .library import Cell, CellLibrary


@dataclass
class MappedNetlist:
    """Result of technology mapping: gate name -> implementing cells.

    The last cell in each list is the one driving the gate's output net (and
    therefore the one whose drive strength and pin capacitance matter for the
    output load / input pins respectively).
    """

    circuit_name: str
    cells: Dict[str, List[Cell]] = field(default_factory=dict)
    drive_of: Dict[str, int] = field(default_factory=dict)

    @property
    def cell_count(self) -> int:
        return sum(len(v) for v in self.cells.values())


def map_circuit(
    circuit: Circuit,
    library: CellLibrary,
    max_iterations: int = 4,
) -> MappedNetlist:
    """Map every logic gate onto library cells with load-driven drive selection."""
    mapped = MappedNetlist(circuit_name=circuit.name)
    map_gates(mapped, list(circuit.logic_gates()), circuit.fanout, library, max_iterations)
    return mapped


def map_gates(
    mapped: MappedNetlist,
    gates: Sequence[Gate],
    readers: Callable[[str], Sequence[str]],
    library: CellLibrary,
    max_iterations: int = 4,
) -> None:
    """Map ``gates`` into ``mapped``, iterating drive choices to a fixed point.

    ``readers(net)`` names the gates reading ``net``; all of them must be in
    ``gates``, so the drive choices depend on nothing outside the set.
    """
    # Start everything at X1.
    for gate in gates:
        mapped.drive_of[gate.name] = 1
        mapped.cells[gate.name] = library.cells_for_gate(
            gate.gate_type, len(gate.inputs), 1
        )

    params = library.params
    for _ in range(max_iterations):
        changed = False
        # Pin load presented by each reading gate, given current drives.
        pin_cap: Dict[str, float] = {
            gate.name: mapped.cells[gate.name][-1].input_cap_ff for gate in gates
        }
        for gate in gates:
            readers_of = readers(gate.name)
            load = params.wire_cap_base_ff + params.wire_cap_per_fanout_ff * len(readers_of)
            load += sum(pin_cap.get(r, params.base_pin_cap_ff) for r in readers_of)
            drive = library.select_drive(gate.gate_type, len(gate.inputs), load)
            if drive != mapped.drive_of[gate.name]:
                mapped.drive_of[gate.name] = drive
                mapped.cells[gate.name] = library.cells_for_gate(
                    gate.gate_type, len(gate.inputs), drive
                )
                changed = True
        if not changed:
            break

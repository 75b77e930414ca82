"""Power and area analysis of a mapped netlist.

Implements the "Power and Area Computation" boxes of the paper's flow
(Fig. 2): given a circuit, a cell library, and per-net switching activity,
compute

* **area** in µm² and gate equivalents (GE),
* **leakage power** — sum of mapped-cell leakages,
* **dynamic power** — per driving net:
  ``P = alpha · f · (0.5 · C_load · Vdd² + E_internal)`` where ``C_load`` is
  the sum of reader-pin capacitances plus estimated wire capacitance.

The paper stresses that *components* must be tracked independently of the
total ("It is mandatory to analyze individual components of power, i.e.,
dynamic and leakage, independently", Sec. II-C.2); :class:`PowerReport`
carries all three plus area so Algorithm 2's threshold checks can quote any
of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gate import Gate
from ..prob.activity import gate_activity, switching_activity
from ..prob.propagate import gate_probability, signal_probabilities
from .library import Cell, CellLibrary, LibraryParams
from .synthesis import MappedNetlist, map_circuit, map_gates


@dataclass(frozen=True)
class PowerReport:
    """Power/area characterization of one circuit under one operating point."""

    circuit_name: str
    total_uw: float
    dynamic_uw: float
    leakage_uw: float
    area_um2: float
    area_ge: float
    frequency_hz: float
    vdd: float
    #: Per-net dynamic contribution (µW), for detector models and debugging.
    dynamic_by_net: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Per-gate leakage contribution (µW).
    leakage_by_gate: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Per-gate area (µm²).
    area_by_gate: Dict[str, float] = field(default_factory=dict, repr=False)

    def delta(self, other: "PowerReport") -> "PowerDelta":
        """``self - other`` in every tracked dimension."""
        return PowerDelta(
            total_uw=self.total_uw - other.total_uw,
            dynamic_uw=self.dynamic_uw - other.dynamic_uw,
            leakage_uw=self.leakage_uw - other.leakage_uw,
            area_ge=self.area_ge - other.area_ge,
            area_um2=self.area_um2 - other.area_um2,
        )


@dataclass(frozen=True)
class PowerDelta:
    """Differential between two :class:`PowerReport` s (paper's ΔP, ΔA)."""

    total_uw: float
    dynamic_uw: float
    leakage_uw: float
    area_ge: float
    area_um2: float

    def within(self, tol_power_uw: float, tol_area_ge: float) -> bool:
        """True when every component fits under the thresholds (≈ 0 check)."""
        return (
            self.total_uw <= tol_power_uw
            and self.dynamic_uw <= tol_power_uw
            and self.leakage_uw <= tol_power_uw
            and self.area_ge <= tol_area_ge
        )


def switching_energy_fj(
    circuit: Circuit,
    library: CellLibrary,
    mapped: Optional[MappedNetlist] = None,
) -> Dict[str, float]:
    """Per-net energy dissipated by one output toggle (fJ).

    ``E = 0.5 · C_load · Vdd² + E_internal`` with ``C_load`` the reader-pin
    capacitances plus estimated wire capacitance — exactly the per-toggle
    energy the dynamic-power model of :func:`analyze` multiplies by
    ``alpha · f``.  The side-channel trace generator
    (:mod:`repro.traces.generator`) weights per-cycle toggle vectors with
    this same table, so traces and aggregate power are scored by one
    consistent cost model.
    """
    if mapped is None:
        mapped = map_circuit(circuit, library)
    pin_load = _pin_loads(circuit, mapped.cells)
    return {
        gate.name: _toggle_energy_fj(
            library.params,
            pin_load[gate.name],
            len(circuit.fanout(gate.name)),
            None if gate.is_input else mapped.cells[gate.name],
        )
        for gate in circuit.gates()
    }


def _pin_loads(circuit: Circuit, cells: Mapping[str, List[Cell]]) -> Dict[str, float]:
    """Sum of reader input-pin capacitances on every net (fF), in gate order."""
    pin_load: Dict[str, float] = {net: 0.0 for net in circuit.nets}
    for gate in circuit.logic_gates():
        pin_cap = cells[gate.name][-1].input_cap_ff
        for src in gate.inputs:
            pin_load[src] += pin_cap
    return pin_load


def _toggle_energy_fj(
    params: LibraryParams, pin_load_ff: float, n_readers: int, cells: Optional[List[Cell]]
) -> float:
    """Energy of one toggle of a net with the given load and driver cells."""
    wire_cap = params.wire_cap_base_ff + params.wire_cap_per_fanout_ff * n_readers
    load_ff = pin_load_ff + wire_cap
    # Decomposed trees switch their internal nets at (approximately) the
    # output activity as well; charge every constituent cell.
    internal_fj = 0.0 if cells is None else sum(c.internal_energy_fj for c in cells)
    return 0.5 * load_ff * params.vdd * params.vdd + internal_fj


class PowerModel:
    """The characterization behind a :class:`PowerReport`, kept up to date
    across padding edits.

    It holds what :func:`analyze` computes: the cells of every logic gate,
    every net's signal probability, switching activity, reader pin load,
    reader count and toggle energy, and the per-gate area/leakage and per-net
    dynamic-power dicts of the report.  :meth:`add_gates` re-costs only what a
    batch of new gates touches; :meth:`report` re-sums the totals over the
    dicts, which are kept in circuit order, so the result equals a fresh
    :func:`analyze` of the edited circuit float for float.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        activity: Optional[Mapping[str, float]] = None,
        pi_probabilities: Optional[Mapping[str, float]] = None,
        mapped: Optional[MappedNetlist] = None,
        frequency_hz: Optional[float] = None,
    ) -> None:
        self.library = library
        self.circuit_name = circuit.name
        self.frequency_hz = (
            frequency_hz if frequency_hz is not None else library.params.frequency_hz
        )
        if mapped is None:
            mapped = map_circuit(circuit, library)
        self.cells: Dict[str, List[Cell]] = dict(mapped.cells)
        #: ``None`` when the activity was given rather than derived.
        self.probability: Optional[Dict[str, float]] = None
        if activity is None:
            self.probability = signal_probabilities(circuit, pi_probabilities)
            activity = switching_activity(circuit, probabilities=self.probability)
        self.activity: Dict[str, float] = dict(activity)
        self.pin_load_ff = _pin_loads(circuit, self.cells)
        self.readers: Dict[str, int] = {net: len(circuit.fanout(net)) for net in circuit.nets}
        self.area_by_gate: Dict[str, float] = {}
        self.leakage_by_gate: Dict[str, float] = {}
        self.energy_fj: Dict[str, float] = {}
        self.dynamic_by_net: Dict[str, float] = {}
        for gate in circuit.logic_gates():
            self._cost_gate(gate.name)
        for gate in circuit.gates():
            self._cost_net(gate)

    def _cost_gate(self, name: str) -> None:
        cells = self.cells[name]
        self.area_by_gate[name] = sum(c.area_um2 for c in cells)
        self.leakage_by_gate[name] = sum(c.leakage_nw for c in cells) * 1e-3  # nW→µW

    def _cost_net(self, gate: Gate) -> None:
        net = gate.name
        # Energy per toggle: 0.5 C V² (fF·V² = fJ) + internal energy — shared
        # with the per-cycle trace generator (repro.traces).
        energy = _toggle_energy_fj(
            self.library.params,
            self.pin_load_ff[net],
            self.readers[net],
            None if gate.is_input else self.cells[net],
        )
        self.energy_fj[net] = energy
        alpha = float(self.activity.get(net, 0.0))
        self.dynamic_by_net[net] = (
            alpha * self.frequency_hz * energy * 1e-9 if alpha > 0.0 else 0.0  # fJ·Hz → µW
        )

    def add_gates(self, circuit: Circuit, names: Sequence[str]) -> None:
        """Follow ``circuit`` after it gained the gates ``names``, in the order
        they were added.

        The batch may read only primary inputs and its own earlier gates, and
        no other gate may read it — the shape of Sec. IV.4's dummy gates on
        the primary inputs and tie-fed fillers.  Such a batch changes no
        existing net's mapping, probability or activity: only the new gates
        are mapped and costed, and only the nets they read gain pin load,
        readers, energy and dynamic power.  Raises :class:`ValueError` for any
        other batch, leaving the model unchanged.
        """
        if self.probability is None:
            raise ValueError("a model built from a given activity cannot follow edits")
        gates = [circuit.gate(name) for name in names]
        batch_readers: Dict[str, List[str]] = {}
        read_inputs: Dict[str, None] = {}
        for gate in gates:
            new = gate.name not in self.dynamic_by_net and gate.name not in batch_readers
            if not new or gate.is_input or gate.is_sequential:
                raise ValueError(f"{gate.name!r} is not a new combinational gate")
            for src in dict.fromkeys(gate.inputs):
                if src in batch_readers:
                    batch_readers[src].append(gate.name)
                elif src in self.dynamic_by_net and circuit.gate(src).is_input:
                    read_inputs[src] = None
                else:
                    raise ValueError(
                        f"{gate.name!r} reads {src!r}, neither a primary input "
                        "nor an earlier gate of the batch"
                    )
            batch_readers[gate.name] = []

        self.circuit_name = circuit.name
        batch = MappedNetlist(circuit_name=circuit.name)
        map_gates(batch, gates, batch_readers.__getitem__, self.library)
        self.cells.update(batch.cells)
        for gate in gates:
            self.probability[gate.name] = gate_probability(gate, self.probability)
            self.activity[gate.name] = gate_activity(gate, self.probability, self.activity)
            self._cost_gate(gate.name)
            self.pin_load_ff[gate.name] = 0.0
            self.readers[gate.name] = 0
            pin_cap = self.cells[gate.name][-1].input_cap_ff
            for src in gate.inputs:
                self.pin_load_ff[src] += pin_cap
            for src in dict.fromkeys(gate.inputs):
                self.readers[src] += 1
        for net in read_inputs:
            self._cost_net(circuit.gate(net))
        for gate in gates:
            self._cost_net(gate)

    def copy(self) -> "PowerModel":
        """An independent model: edits to the copy leave this one as it is."""
        dup = object.__new__(PowerModel)
        dup.__dict__.update(
            {k: dict(v) if isinstance(v, dict) else v for k, v in self.__dict__.items()}
        )
        return dup

    def report(self) -> PowerReport:
        """The :class:`PowerReport` of the circuit as the model now sees it."""
        area_um2 = sum(self.area_by_gate.values())
        leakage_uw = sum(self.leakage_by_gate.values())
        dynamic_uw = sum(self.dynamic_by_net.values())
        return PowerReport(
            circuit_name=self.circuit_name,
            total_uw=dynamic_uw + leakage_uw,
            dynamic_uw=dynamic_uw,
            leakage_uw=leakage_uw,
            area_um2=area_um2,
            area_ge=area_um2 / self.library.ge_area_um2,
            frequency_hz=self.frequency_hz,
            vdd=self.library.params.vdd,
            dynamic_by_net=dict(self.dynamic_by_net),
            leakage_by_gate=dict(self.leakage_by_gate),
            area_by_gate=dict(self.area_by_gate),
        )


def analyze(
    circuit: Circuit,
    library: CellLibrary,
    activity: Optional[Mapping[str, float]] = None,
    pi_probabilities: Optional[Mapping[str, float]] = None,
    mapped: Optional[MappedNetlist] = None,
    frequency_hz: Optional[float] = None,
) -> PowerReport:
    """Characterize ``circuit``: area, leakage, and activity-driven dynamic power.

    Parameters
    ----------
    activity:
        Per-net toggle probability per vector.  Computed analytically from
        signal probabilities when omitted.
    mapped:
        Pre-computed technology mapping; mapped on the fly when omitted.
    """
    return PowerModel(
        circuit, library, activity, pi_probabilities, mapped, frequency_hz
    ).report()

"""Static timing analysis and a path-delay side-channel detector.

The paper's Sec. I-A lists propagation delay among the side channels a
defender can measure.  TrojanZero keeps *power and area* at their HT-free
values, but the Fig. 4 payload inserts a MUX in series with the victim net —
a delay the attacker cannot salvage away.  This module makes that trade-off
measurable:

* :func:`static_timing` — topological arrival-time analysis over a mapped
  netlist with a load-dependent linear delay model per cell;
* :class:`DelayDetector` — a per-output delay signature test in the style of
  the power detectors (calibrated on golden chips with delay variation).

The delay experiments are an *extension* of the paper (it only evaluates
power/area detection);
``benchmarks/test_extensions.py::test_delay_side_channel_on_tz_circuit``
measures what they show: the payload adds a measurable delay on the
victim's paths unless the victim has slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from ..netlist.gate import GateType
from .library import CellLibrary
from .synthesis import MappedNetlist, map_circuit

#: Intrinsic delay of the reference NAND2X1 (ps) and load-dependence (ps/fF).
_BASE_DELAY_PS = 18.0
_LOAD_SLOPE_PS_PER_FF = 2.4

#: Relative delay complexity per gate type (mirrors the area factors).
_DELAY_FACTORS: Dict[GateType, float] = {
    GateType.NAND: 1.00,
    GateType.NOR: 1.10,
    GateType.AND: 1.35,
    GateType.OR: 1.40,
    GateType.XOR: 1.90,
    GateType.XNOR: 1.95,
    GateType.NOT: 0.60,
    GateType.BUFF: 0.75,
    GateType.MUX: 1.70,
    GateType.TIE0: 0.0,
    GateType.TIE1: 0.0,
    GateType.DFF: 2.10,  # clk-to-q
}


@dataclass(frozen=True)
class TimingReport:
    """Arrival times (ps) and the critical path of a combinational circuit."""

    arrival_ps: Dict[str, float]
    output_arrival_ps: Dict[str, float]
    critical_path: Tuple[str, ...]
    critical_delay_ps: float

    def output_delay(self, output: str) -> float:
        return self.output_arrival_ps[output]


def gate_delay_ps(
    circuit: Circuit,
    library: CellLibrary,
    mapped: MappedNetlist,
    net: str,
) -> float:
    """Load-dependent propagation delay of the gate driving ``net``."""
    gate = circuit.gate(net)
    if gate.is_input or gate.is_constant:
        return 0.0
    factor = _DELAY_FACTORS[gate.gate_type]
    cells = mapped.cells[net]
    params = library.params
    readers = circuit.fanout(net)
    load = params.wire_cap_base_ff + params.wire_cap_per_fanout_ff * len(readers)
    for reader in readers:
        reader_cells = mapped.cells.get(reader)
        load += reader_cells[-1].input_cap_ff if reader_cells else params.base_pin_cap_ff
    drive = cells[-1].drive
    slope = _LOAD_SLOPE_PS_PER_FF / drive
    # Decomposed wide gates pay one level per constituent cell.
    stages = len(cells)
    return stages * (_BASE_DELAY_PS * factor) + slope * load


def static_timing(
    circuit: Circuit,
    library: CellLibrary,
    mapped: Optional[MappedNetlist] = None,
) -> TimingReport:
    """Topological arrival-time analysis; DFF outputs launch at t = clk-to-q."""
    if mapped is None:
        mapped = map_circuit(circuit, library)
    arrival: Dict[str, float] = {}
    best_pred: Dict[str, Optional[str]] = {}
    for net in circuit.topological_order():
        gate = circuit.gate(net)
        delay = gate_delay_ps(circuit, library, mapped, net)
        if gate.is_input or gate.is_constant:
            arrival[net] = 0.0
            best_pred[net] = None
        elif gate.is_sequential:
            arrival[net] = delay
            best_pred[net] = None
        else:
            worst_src = max(gate.inputs, key=lambda s: arrival[s])
            arrival[net] = arrival[worst_src] + delay
            best_pred[net] = worst_src
    output_arrival = {po: arrival[po] for po in circuit.outputs}
    if output_arrival:
        critical_out = max(output_arrival, key=output_arrival.__getitem__)
        path: List[str] = []
        node: Optional[str] = critical_out
        while node is not None:
            path.append(node)
            node = best_pred[node]
        path.reverse()
        critical_delay = output_arrival[critical_out]
    else:
        path, critical_delay = [], 0.0
    return TimingReport(
        arrival_ps=arrival,
        output_arrival_ps=output_arrival,
        critical_path=tuple(path),
        critical_delay_ps=critical_delay,
    )


@dataclass
class DelayDetector:
    """Per-output path-delay signature test (side-channel extension).

    Calibrated on golden chips whose per-output delays vary with process
    spread; flags a device whose measured output delays deviate upward beyond
    the calibrated threshold.
    """

    variation_sigma: float = 0.04
    measurement_noise: float = 0.01
    calibration_quantile: float = 0.995
    _mean: Optional[np.ndarray] = None
    _std: Optional[np.ndarray] = None
    _outputs: Tuple[str, ...] = ()
    _threshold: float = 0.0

    def _sample(self, report: TimingReport, rng: np.random.Generator) -> np.ndarray:
        nominal = np.array([report.output_arrival_ps[o] for o in self._outputs])
        chip = nominal * rng.normal(1.0, self.variation_sigma, nominal.shape)
        return chip * (1.0 + rng.normal(0.0, self.measurement_noise, nominal.shape))

    def calibrate(
        self, golden: TimingReport, n_chips: int = 40, seed: int = 17
    ) -> None:
        rng = np.random.default_rng(seed)
        self._outputs = tuple(golden.output_arrival_ps)
        chips = np.stack([self._sample(golden, rng) for _ in range(n_chips)])
        self._mean = chips.mean(axis=0)
        self._std = np.maximum(chips.std(axis=0, ddof=1), 1e-9)
        stats = [float(np.max((c - self._mean) / self._std)) for c in chips]
        self._threshold = float(np.quantile(stats, self.calibration_quantile))

    def statistic(self, measured: np.ndarray) -> float:
        if self._mean is None:
            raise RuntimeError("calibrate() first")
        return float(np.max((measured - self._mean) / self._std))

    def detection_rate(
        self, suspect: TimingReport, n_chips: int = 40, seed: int = 23
    ) -> float:
        """Fraction of suspect-population chips flagged."""
        rng = np.random.default_rng(seed)
        missing = [o for o in self._outputs if o not in suspect.output_arrival_ps]
        if missing:
            raise ValueError(f"suspect circuit lacks outputs {missing[:3]}")
        saved_outputs = self._outputs
        flags = 0
        for _ in range(n_chips):
            nominal = np.array(
                [suspect.output_arrival_ps[o] for o in saved_outputs]
            )
            chip = nominal * rng.normal(1.0, self.variation_sigma, nominal.shape)
            chip *= 1.0 + rng.normal(0.0, self.measurement_noise, nominal.shape)
            flags += int(self.statistic(chip) > self._threshold)
        return flags / n_chips

"""Multi-port dynamic-power outlier detection, after Rad et al. [10].

The defender measures transient (dynamic) power on a population of golden
chips, learns its statistics, and flags a device under test that deviates
beyond what process variation explains.  Fig. 3 of the TrojanZero paper
characterizes this method by its minimum detectable *increase* in dynamic
power (~0.27% on c499).

Two statistic modes:

* ``"paper"`` (default) — the abstraction the TrojanZero paper evaluates
  against: a one-sided z-test on the port-summed (total) dynamic power.  An
  HT is assumed additive, so only an increase raises the alarm.
* ``"structural"`` — a stronger variant using the maximum absolute regional
  z-score.  This sees power *redistribution*, not just totals, and is part
  of this reproduction's ablation: TrojanZero does **not** evade it
  (``benchmarks/test_evasion.py::test_evasion_structural_ablation``),
  supporting the paper's closing call for new detection methodologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .variation import ChipMeasurements


@dataclass
class RadDetector:
    """Dynamic-power statistical test (total in ``paper`` mode, regional in
    ``structural`` mode)."""

    mode: str = "paper"
    #: Quantile of the calibration statistic used as the alarm threshold.
    calibration_quantile: float = 0.995
    _total_mean: float = 0.0
    _total_std: float = 1.0
    _region_mean: Optional[np.ndarray] = None
    _region_std: Optional[np.ndarray] = None
    _threshold: float = 0.0
    _calibrated: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("paper", "structural"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def calibrate(self, golden: Sequence[ChipMeasurements]) -> None:
        """Learn dynamic-power statistics from trusted (golden) chips."""
        if len(golden) < 8:
            raise ValueError("need at least 8 golden chips to calibrate")
        totals = np.array([c.total_dynamic_uw for c in golden])
        self._total_mean = float(totals.mean())
        self._total_std = float(max(totals.std(ddof=1), 1e-12))
        regions = np.stack([c.region_dynamic_uw for c in golden])
        self._region_mean = regions.mean(axis=0)
        self._region_std = np.maximum(regions.std(axis=0, ddof=1), 1e-12)
        self._calibrated = True
        stats = [self.statistic(c) for c in golden]
        self._threshold = float(np.quantile(stats, self.calibration_quantile))

    def statistic(self, chip: ChipMeasurements) -> float:
        if not self._calibrated:
            raise RuntimeError("calibrate() first")
        if self.mode == "paper":
            # One-sided: additive HTs increase dynamic power.
            return (chip.total_dynamic_uw - self._total_mean) / self._total_std
        z = (chip.region_dynamic_uw - self._region_mean) / self._region_std
        return float(np.max(np.abs(z)))

    def flags(self, chip: ChipMeasurements) -> bool:
        """True when the chip looks Trojan-infected."""
        return self.statistic(chip) > self._threshold

    def detection_rate(self, chips: Sequence[ChipMeasurements]) -> float:
        return float(np.mean([self.flags(c) for c in chips]))

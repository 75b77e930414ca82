"""Trace-based hardware-Trojan detectors.

Where the aggregate detectors of :mod:`repro.detect` see one number per
chip, these see per-cycle traces — temporal structure.  Three statistics,
all calibrated on a golden-chip population exactly like the aggregate
baselines (``calibrate`` / ``statistic`` / ``flags`` / ``detection_rate``),
so the evaluation harness reports the same verdict schema:

* :class:`TvlaTraceDetector` — Welch's t-test per cycle between a pooled
  golden reference and the device under test (TVLA-style leakage
  assessment); statistic is the largest absolute t over the trace.
* :class:`DomTraceDetector` — difference-of-means distinguisher *keyed on
  trigger activity*: the defender hypothesizes candidate trigger nets,
  predicts from the golden netlist at which cycles each candidate fires,
  and compares the residual energy of active vs. inactive samples.
* :class:`CorrTraceDetector` — Pearson-correlation distinguisher over the
  same hypotheses: residual energy vs. predicted activity across all
  samples.

The keyed detectors are the attack-on-the-paper instruments: a counter
Trojan's flip-flops draw energy exactly when the (rare) clock-source net
fires, and that temporal correlation survives even when the *total* power
increase is salvaged to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

_EPS = 1e-12

#: Minimum golden population for threshold calibration (matches the
#: aggregate detectors of :mod:`repro.detect`).
_MIN_GOLDEN = 8


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _moments(traces: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Per-cycle mean, unbiased variance and count of a trace set ``(n, T)``."""
    traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    if traces.shape[0] < 2:
        raise ValueError("welch t needs at least 2 traces per set")
    return traces.mean(axis=0), traces.var(axis=0, ddof=1), traces.shape[0]


def _welch_t(
    mean_a: np.ndarray, var_a: np.ndarray, na: int, b: np.ndarray
) -> np.ndarray:
    """Per-cycle Welch t of trace set ``b`` against set *a*'s moments."""
    mean_b, var_b, nb = _moments(b)
    denom = np.sqrt(var_a / na + var_b / nb)
    return (mean_a - mean_b) / np.maximum(denom, _EPS)


def welch_t_statistic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-cycle Welch t between two trace sets ``(n_a, T)`` and ``(n_b, T)``."""
    return _welch_t(*_moments(a), b)


def _max_abs(t: np.ndarray) -> float:
    return float(np.max(np.abs(t))) if t.size else 0.0


@dataclass(frozen=True)
class LeakageAssessment:
    """TVLA-style summary of one two-set comparison."""

    max_abs_t: float
    n_leaky_cycles: int
    t_threshold: float
    n_cycles: int

    @property
    def leaks(self) -> bool:
        return self.max_abs_t > self.t_threshold


def leakage_assessment(
    a: np.ndarray, b: np.ndarray, t_threshold: float = 4.5
) -> LeakageAssessment:
    """Assess two trace sets for leakage at the TVLA ``|t| > 4.5`` bar."""
    return _assess(welch_t_statistic(a, b), t_threshold)


def _assess(t: np.ndarray, t_threshold: float) -> LeakageAssessment:
    return LeakageAssessment(
        max_abs_t=_max_abs(t),
        n_leaky_cycles=int(np.sum(np.abs(t) > t_threshold)),
        t_threshold=t_threshold,
        n_cycles=int(t.shape[0]),
    )


@dataclass
class _CalibratedTraceDetector:
    """Shared calibrate/flag plumbing (mirrors the aggregate detectors)."""

    calibration_quantile: float = 0.995
    #: Guard band on the calibrated quantile: with a small golden population
    #: the extreme quantile is estimated from the sample maximum, so fresh
    #: golden chips routinely exceed it.  The margin buys the specified
    #: false-positive rate at the cost of sensitivity, exactly like TVLA's
    #: conventional 4.5 bar sits well above the pointwise 99.9% level.
    threshold_margin: float = 1.25
    _threshold: float = field(default=float("inf"), repr=False)
    _calibrated: bool = field(default=False, repr=False)

    def statistic(self, traces: np.ndarray) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _golden_statistics(self, golden: Sequence[np.ndarray]) -> List[float]:
        raise NotImplementedError  # pragma: no cover - abstract

    def _fit(self, golden: Sequence[np.ndarray]) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def calibrate(self, golden: Sequence[np.ndarray]) -> None:
        """Fit the null model and alarm threshold on golden-chip trace sets."""
        if len(golden) < _MIN_GOLDEN:
            raise ValueError(f"need at least {_MIN_GOLDEN} golden chips to calibrate")
        self._fit(golden)
        self._calibrated = True
        stats = self._golden_statistics(golden)
        self._threshold = max(
            self._floor_threshold(),
            self.threshold_margin
            * float(np.quantile(stats, self.calibration_quantile)),
        )

    def _floor_threshold(self) -> float:
        return 0.0

    @property
    def threshold(self) -> float:
        """The calibrated alarm threshold (``inf`` before calibration)."""
        return self._threshold

    def flags(self, traces: np.ndarray) -> bool:
        return self.statistic(traces) > self._threshold

    def statistics(self, chips: Sequence[np.ndarray]) -> np.ndarray:
        """The statistic of every chip, in order: score each chip once and
        derive its flag, the population's rate and its maximum from here."""
        return np.array([self.statistic(c) for c in chips], dtype=np.float64)

    def detection_rate(self, chips: Sequence[np.ndarray]) -> float:
        return float(np.mean(self.statistics(chips) > self._threshold))


@dataclass
class TvlaTraceDetector(_CalibratedTraceDetector):
    """Welch t-test / TVLA leakage assessment against a pooled golden set.

    Calibration keeps only the pool's per-cycle moments, so scoring a device
    costs the moments of its own trace set.
    """

    #: TVLA's conventional leakage bar; the calibrated quantile can only
    #: raise the alarm threshold above it, never below.
    t_threshold: float = 4.5
    _golden_mean: Optional[np.ndarray] = field(default=None, repr=False)
    _golden_var: Optional[np.ndarray] = field(default=None, repr=False)
    _golden_n: int = field(default=0, repr=False)

    def _floor_threshold(self) -> float:
        return self.t_threshold

    def _fit(self, golden: Sequence[np.ndarray]) -> None:
        mean, var, n = _moments(np.concatenate([np.atleast_2d(g) for g in golden], axis=0))
        self._golden_mean, self._golden_var = _read_only(mean), _read_only(var)
        self._golden_n = n

    def _golden_statistics(self, golden: Sequence[np.ndarray]) -> List[float]:
        # Leave-one-out: score each golden chip against the pool of the
        # others, so the null distribution is not biased by self-inclusion.
        stats = []
        for i, chip in enumerate(golden):
            others = np.concatenate(
                [np.atleast_2d(g) for j, g in enumerate(golden) if j != i], axis=0
            )
            stats.append(_max_abs(welch_t_statistic(others, chip)))
        return stats

    def _t(self, traces: np.ndarray) -> np.ndarray:
        if not self._calibrated:
            raise RuntimeError("calibrate() first")
        return _welch_t(self._golden_mean, self._golden_var, self._golden_n, traces)

    def statistic(self, traces: np.ndarray) -> float:
        return _max_abs(self._t(traces))

    def assessment(self, traces: np.ndarray) -> LeakageAssessment:
        """Full TVLA summary of one device against the golden pool."""
        return _assess(self._t(traces), self.t_threshold)


@dataclass
class _KeyedResidualDetector(_CalibratedTraceDetector):
    """Base for distinguishers keyed on hypothesized trigger activity.

    ``activity`` has shape ``(n_hypotheses, n_samples)`` and must align with
    the sample axis of every scored trace set — entry ``[k, m]`` is the
    predicted activity of candidate trigger *k* at sample position *m*
    (computed from the golden netlist, which the defender has; positions are
    (sequence, cycle) pairs, so the prediction is stimulus-specific).
    Scoring averages a device's traces over its acquisition repeats, removes
    the golden per-position mean, and compares the residual against each
    hypothesis; the statistic is a z-score of the per-hypothesis score
    against its golden distribution, maximized over hypotheses.
    """

    activity: Optional[np.ndarray] = None
    #: Floor on the max-|z| alarm threshold (the keyed analogue of TVLA's
    #: 4.5 bar: a z maxed over hypotheses needs headroom over the pointwise
    #: normal quantiles).
    z_threshold: float = 4.0
    _golden_mean: Optional[np.ndarray] = field(default=None, repr=False)
    _score_mean: Optional[np.ndarray] = field(default=None, repr=False)
    _score_std: Optional[np.ndarray] = field(default=None, repr=False)

    def _floor_threshold(self) -> float:
        return self.z_threshold

    def _scores(self, residual: np.ndarray) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract

    def _residual(self, traces: np.ndarray) -> np.ndarray:
        """Repeat-averaged residual vector ``(n_samples,)`` of one device."""
        traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
        if traces.shape[1] != self._golden_mean.shape[0]:
            raise ValueError(
                f"trace length {traces.shape[1]} != calibrated {self._golden_mean.shape[0]}"
            )
        return traces.mean(axis=0) - self._golden_mean

    def _fit(self, golden: Sequence[np.ndarray]) -> None:
        if self.activity is None:
            raise ValueError("activity hypotheses required before calibration")
        self.activity = _read_only(np.array(self.activity, dtype=np.float64, ndmin=2))
        pooled = np.concatenate([np.atleast_2d(g) for g in golden], axis=0)
        self._golden_mean = _read_only(pooled.mean(axis=0))
        raw = np.stack([self._scores(self._residual(g)) for g in golden])
        self._score_mean = _read_only(raw.mean(axis=0))
        self._score_std = _read_only(np.maximum(raw.std(axis=0, ddof=1), _EPS))

    def _golden_statistics(self, golden: Sequence[np.ndarray]) -> List[float]:
        return [self.statistic(g) for g in golden]

    def statistic(self, traces: np.ndarray) -> float:
        if self._golden_mean is None:
            raise RuntimeError("calibrate() first")
        scores = self._scores(self._residual(traces))
        return _max_abs((scores - self._score_mean) / self._score_std)


@dataclass
class DomTraceDetector(_KeyedResidualDetector):
    """Difference of means between predicted-active and inactive samples."""

    def _scores(self, residual: np.ndarray) -> np.ndarray:
        # activity: (K, M); residual: (M,).  Mean residual over the active
        # vs. inactive sample positions, all hypotheses at once.
        on = self.activity > 0.5
        n_on = on.sum(axis=1)
        n_off = on.shape[1] - n_on
        sum_on = on @ residual
        sum_all = residual.sum()
        scores = np.zeros(on.shape[0], dtype=np.float64)
        valid = (n_on > 0) & (n_off > 0)
        scores[valid] = sum_on[valid] / n_on[valid] - (
            sum_all - sum_on[valid]
        ) / n_off[valid]
        return scores


@dataclass
class CorrTraceDetector(_KeyedResidualDetector):
    """Pearson correlation of residual energy with predicted activity."""

    def _scores(self, residual: np.ndarray) -> np.ndarray:
        act = self.activity
        res_c = residual - residual.mean()
        act_c = act - act.mean(axis=1, keepdims=True)
        denom = np.sqrt((act_c * act_c).sum(axis=1) * (res_c * res_c).sum())
        return (act_c @ res_c) / np.maximum(denom, _EPS)

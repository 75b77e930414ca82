"""The side-channel trace lab: populations, hypotheses, and the evasion verdict.

This is the trace analogue of :mod:`repro.detect.evaluate`'s
``evasion_experiment``: fabricate golden / additive-HT / TrojanZero chip
populations, *measure per-cycle power traces* from each (per-chip process
variation via :meth:`TraceGenerator.chip_weights`, then a configurable
sensor-noise chain), calibrate the trace detectors on golden chips, and
report detection rates in the same :class:`~repro.detect.evaluate.
EvasionReport` schema the aggregate suites use — so ``CampaignSpec`` cells
can request the trace suite by registry name (``detector="traces"``) with no
runner changes.

Defender model
--------------
The defender owns the golden netlist, so they can (a) generate the golden
reference traces' expected shape and (b) *predict trigger activity*: the
rarest internal nets are exactly Algorithm 1's candidate set, and simulating
the golden netlist over the applied stimuli tells the defender at which
cycles each candidate would fire.  The keyed detectors
(:class:`~repro.traces.detectors.DomTraceDetector`,
:class:`~repro.traces.detectors.CorrTraceDetector`) test the measured
residual energy against those per-cycle predictions — the question the
aggregate detectors cannot ask.

What depends on Pth
-------------------
Only the TrojanZero-infected netlist N″ does: its toggle tensor, its chip
population (its own sub-seed), its scores, its power and its diagnostics.
Everything else — the stimuli, the ADC scale and sensor chain, the golden
reference mean, the calibration, golden and additive populations, the
defender's hypotheses, the calibrated detectors, their golden and additive
scores, and the golden and additive power — depends only on N, the library,
``additive_gates``, ``n_chips``, the detector seed and the
:class:`TraceLabConfig`.  That golden side is memoized per process
(:data:`GOLDEN_SIDE_CAPACITY` entries, keyed like the Phase A memo of
:mod:`repro.core.pipeline` plus those inputs), with read-only arrays and no
population or toggle tensor kept, so the cells of a Pth sweep compute it
once.  Each detector scores each chip once
(:meth:`~repro.traces.detectors._CalibratedTraceDetector.statistics`); a
population's rate and maximum come from that one array.

Determinism: every draw derives from the experiment seed through
:func:`repro.core.pipeline.derive_seed`, with fixed sub-seed indices per
population, so serial and multi-worker campaign runs produce bit-identical
payloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pipeline import LruMemo, derive_seed, memo_key
from ..detect.evaluate import EvasionReport
from ..detect.variation import VariationModel
from ..netlist.circuit import Circuit
from ..power.analysis import analyze
from ..power.library import CellLibrary
from ..power.synthesis import map_circuit
from ..prob.propagate import signal_probabilities
from ..sim.seqsim import SequentialSimulator
from ..trojan.combinational import insert_additive_burden
from .detectors import (
    CorrTraceDetector,
    DomTraceDetector,
    TvlaTraceDetector,
    _CalibratedTraceDetector,
)
from .generator import TraceGenerator
from .noise import GaussianNoise, Jitter, NoiseChain, NoiseModel, Quantization

#: Sub-seed indices of the lab's master seed (one per independent stream).
_SEED_STIMULI = 0
_SEED_CALIBRATION = 1
_SEED_GOLDEN = 2
_SEED_ADDITIVE = 3
_SEED_TROJANZERO = 4


@dataclass(frozen=True)
class TraceLabConfig:
    """Acquisition and analysis parameters of one trace experiment."""

    #: Stimulus sequences applied to every chip (the defender's test plan).
    n_sequences: int = 24
    #: Vectors per sequence; traces carry ``n_vectors - 1`` cycle samples.
    n_vectors: int = 33
    #: Acquisitions per chip: every chip is measured this many times over the
    #: same stimuli, so trace samples align by (sequence, cycle) position and
    #: the t-test variance is measurement noise, not stimulus variance.
    n_repeats: int = 8
    #: Candidate trigger nets the keyed detectors hypothesize over.
    n_hypotheses: int = 8
    #: Process/measurement spread (shared with the aggregate detectors).
    variation: VariationModel = field(default_factory=VariationModel)
    #: Additive sensor noise as a fraction of the mean trace sample.
    noise_rel: float = 0.01
    #: ADC resolution; 0 disables quantization.
    adc_bits: int = 12
    #: Acquisition-trigger jitter in cycles; 0 disables misalignment.
    jitter_cycles: int = 0
    #: Gain-normalize each device's trace set to a common grand mean before
    #: analysis (standard side-channel preprocessing: a scalar amplifier/
    #: process gain carries no structural information, and removing it keeps
    #: the t-test sensitive to *temporal* deviations instead of chip-wide
    #: spread).
    normalize_gain: bool = True
    #: TVLA leakage bar.
    t_threshold: float = 4.5
    #: False-positive quantile for calibrated thresholds.
    calibration_quantile: float = 0.995

    def __post_init__(self) -> None:
        if self.n_sequences < 1:
            raise ValueError(f"need at least 1 sequence, got {self.n_sequences}")
        if self.n_vectors < 2:
            raise ValueError(f"need at least 2 vectors per sequence, got {self.n_vectors}")
        if self.n_repeats < 2:
            raise ValueError(
                f"need at least 2 acquisition repeats for the Welch t-test, "
                f"got {self.n_repeats}"
            )

    def noise_chain(self, full_scale_fj: float) -> NoiseChain:
        """The sensor chain after per-net chip variation: noise -> jitter -> ADC."""
        stages: List[NoiseModel] = []
        if self.noise_rel > 0.0:
            stages.append(GaussianNoise(sigma_rel=self.noise_rel))
        if self.jitter_cycles > 0:
            stages.append(Jitter(max_shift_cycles=self.jitter_cycles))
        if self.adc_bits > 0:
            stages.append(Quantization(bits=self.adc_bits, full_scale_fj=full_scale_fj))
        return NoiseChain(stages=tuple(stages))


def random_stimuli(
    circuit: Circuit, config: TraceLabConfig, rng: np.random.Generator
) -> np.ndarray:
    """The defender's stimulus block: ``(n_sequences, n_vectors, n_inputs)``."""
    return (
        rng.random((config.n_sequences, config.n_vectors, len(circuit.inputs))) < 0.5
    ).astype(np.uint8)


def defender_hypotheses(
    golden: Circuit, sequences: np.ndarray, n_hypotheses: int
) -> Tuple[List[str], np.ndarray]:
    """Candidate trigger nets and their predicted firing activity.

    Candidates are the golden netlist's rarest internal nets (most extreme
    signal probability — Algorithm 1's own selection criterion, which the
    defender can evaluate just as well as the attacker), restricted to nets
    whose predicted activity actually fires under the applied stimuli (a
    hypothesis that never fires cannot distinguish anything).  Activity is
    the predicted *rising edge* indicator of each candidate, flattened over
    (sequence, cycle) sample positions to ``(n_hypotheses, n_samples)`` —
    a ripple-counter trigger advances exactly on those edges.
    """
    probs = signal_probabilities(golden)
    candidates = [
        net
        for net in golden.internal_nets()
        if not golden.gate(net).is_constant and not golden.gate(net).is_sequential
    ]
    candidates.sort(key=lambda net: min(probs[net], 1.0 - probs[net]))
    n_samples = sequences.shape[0] * (sequences.shape[1] - 1)
    # Simulate a larger pool so all-quiet candidates can be dropped.
    pool = candidates[: max(4 * n_hypotheses, n_hypotheses)]
    if not pool:
        return [], np.zeros((0, n_samples))
    bits = SequentialSimulator(golden).run_sequences_nets(sequences, pool)
    rising = (1 - bits[:, :-1, :]) & bits[:, 1:, :]  # (S, T-1, K)
    flat = rising.transpose(2, 0, 1).reshape(len(pool), n_samples).astype(np.float64)
    fires = flat.sum(axis=1) > 0
    keep = [i for i in range(len(pool)) if fires[i]][:n_hypotheses]
    if not keep:  # degenerate stimuli: fall back to the rarest candidates
        keep = list(range(min(n_hypotheses, len(pool))))
    return [pool[i] for i in keep], np.ascontiguousarray(flat[keep])


def measure_chip(
    generator: TraceGenerator,
    toggles: np.ndarray,
    config: TraceLabConfig,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fabricate one die and acquire its trace set.

    Per-net process variation realizes once per chip
    (:meth:`TraceGenerator.chip_weights`); the chip's noiseless trace is then
    acquired ``n_repeats`` times through the sensor chain.  Returns
    ``(n_repeats, n_samples)`` with samples flattened over (sequence, cycle)
    positions so sets align across chips.
    """
    weights = generator.chip_weights(config.variation, rng)
    nominal = generator.traces_from_toggles(toggles, weights).reshape(1, -1)
    repeats = np.repeat(nominal, config.n_repeats, axis=0)
    return noise.apply(repeats, rng)


def trace_population(
    generator: TraceGenerator,
    toggles: np.ndarray,
    n_chips: int,
    config: TraceLabConfig,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Measure ``n_chips`` fabricated dies of one netlist.

    The toggle tensor depends only on the netlist and stimuli, so it is
    computed once per circuit; each chip then costs one weight draw, one
    matmul, and the noise chain.
    """
    return [measure_chip(generator, toggles, config, noise, rng) for _ in range(n_chips)]


class TraceEvasionReport(EvasionReport):
    """An :class:`EvasionReport` plus trace-lab diagnostics.

    ``trace_diagnostics`` carries acquisition metadata and detector
    internals (per-population max statistics, hypothesis nets, timings) —
    surfaced by the campaign runner under the record's non-payload
    ``traces`` section.
    """

    def __init__(self, *args, trace_diagnostics: Optional[Dict[str, Any]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace_diagnostics: Dict[str, Any] = trace_diagnostics or {}


#: Golden sides the per-process memo keeps, least recently used evicted
#: first.  An entry holds stimuli, calibrated detectors and scalars: 0.15 MB
#: of arrays on c432.
GOLDEN_SIDE_CAPACITY = 4

#: Golden-side memo: key -> :class:`_GoldenSide`.
_golden_memo = LruMemo(GOLDEN_SIDE_CAPACITY)

#: ``(detection rate, max statistic)`` of one population per detector name.
Scores = Dict[str, Tuple[float, float]]


@dataclass(frozen=True, eq=False)
class _GoldenSide:
    """Everything of one trace experiment that N″ cannot reach.

    Arrays are read-only (the calibrated detectors' too); populations and
    toggle tensors are not kept.
    """

    library: CellLibrary
    stimuli: np.ndarray
    noise: NoiseChain
    ref_mean: float
    detectors: Dict[str, _CalibratedTraceDetector]
    golden_scores: Scores
    additive_scores: Scores
    hypothesis_nets: Tuple[str, ...]
    nets_watched: Dict[str, int]
    mean_cycle_energy_fj: Dict[str, float]
    golden_total_uw: float
    additive_total_uw: float


def _population(
    generator: TraceGenerator,
    toggles: np.ndarray,
    n_chips: int,
    config: TraceLabConfig,
    noise: NoiseModel,
    ref_mean: float,
    seed: int,
) -> List[np.ndarray]:
    """One seeded population, gain-normalized to ``ref_mean`` if configured."""
    rng = np.random.default_rng(seed)
    chips = trace_population(generator, toggles, n_chips, config, noise, rng)
    if config.normalize_gain:
        chips = [chip * (ref_mean / max(float(chip.mean()), 1e-12)) for chip in chips]
    return chips


def _score(
    detectors: Dict[str, _CalibratedTraceDetector], chips: Sequence[np.ndarray]
) -> Scores:
    scores = {}
    for name, detector in detectors.items():
        stats = detector.statistics(chips)
        scores[name] = (float(np.mean(stats > detector.threshold)), float(stats.max()))
    return scores


def _golden_side(
    golden_circuit: Circuit,
    library: CellLibrary,
    additive_gates: int,
    n_chips: int,
    seed: int,
    config: TraceLabConfig,
) -> _GoldenSide:
    """The golden side of one trace experiment, through the per-process memo."""
    key = memo_key(golden_circuit, library, additive_gates, n_chips, seed, config)
    side = _golden_memo.get(key)
    if side is None:
        side = _compute_golden_side(
            golden_circuit, library, additive_gates, n_chips, seed, config
        )
        _golden_memo.put(key, side)
    return side


def _compute_golden_side(
    golden_circuit: Circuit,
    library: CellLibrary,
    additive_gates: int,
    n_chips: int,
    seed: int,
    config: TraceLabConfig,
) -> _GoldenSide:
    stimuli_rng = np.random.default_rng(derive_seed(seed, _SEED_STIMULI))
    sequences = random_stimuli(golden_circuit, config, stimuli_rng)
    sequences.setflags(write=False)

    additive_circuit = golden_circuit.copy(f"{golden_circuit.name}_additive")
    insert_additive_burden(additive_circuit, additive_gates)

    golden_mapped = map_circuit(golden_circuit, library)
    additive_mapped = map_circuit(additive_circuit, library)
    golden_gen = TraceGenerator(golden_circuit, library, mapped=golden_mapped)
    additive_gen = TraceGenerator(additive_circuit, library, mapped=additive_mapped)
    golden_toggles = golden_gen.toggles(sequences)
    additive_toggles = additive_gen.toggles(sequences)

    # One fixed ADC scale for every population: digitize additive/infected
    # chips exactly like golden ones (headroom for overheads + variation).
    nominal = golden_gen.traces_from_toggles(golden_toggles)
    full_scale = 1.5 * float(nominal.max()) if nominal.size else 1.0
    noise = config.noise_chain(full_scale)
    ref_mean = float(nominal.mean()) if nominal.size else 1.0

    def population(
        generator: TraceGenerator, toggles: np.ndarray, seed_index: int
    ) -> List[np.ndarray]:
        return _population(
            generator, toggles, n_chips, config, noise, ref_mean,
            derive_seed(seed, seed_index),
        )

    calibration = population(golden_gen, golden_toggles, _SEED_CALIBRATION)
    golden_chips = population(golden_gen, golden_toggles, _SEED_GOLDEN)
    additive_chips = population(additive_gen, additive_toggles, _SEED_ADDITIVE)

    hypothesis_nets, activity = defender_hypotheses(
        golden_circuit, sequences, config.n_hypotheses
    )
    detectors: Dict[str, _CalibratedTraceDetector] = {
        "tvla": TvlaTraceDetector(
            t_threshold=config.t_threshold,
            calibration_quantile=config.calibration_quantile,
        )
    }
    if activity.shape[0]:
        detectors["dom"] = DomTraceDetector(
            activity=activity, calibration_quantile=config.calibration_quantile
        )
        detectors["corr"] = CorrTraceDetector(
            activity=activity, calibration_quantile=config.calibration_quantile
        )
    for detector in detectors.values():
        detector.calibrate(calibration)

    return _GoldenSide(
        library=library,
        stimuli=sequences,
        noise=noise,
        ref_mean=ref_mean,
        detectors=detectors,
        golden_scores=_score(detectors, golden_chips),
        additive_scores=_score(detectors, additive_chips),
        hypothesis_nets=tuple(hypothesis_nets),
        nets_watched={"golden": len(golden_gen.nets), "additive": len(additive_gen.nets)},
        mean_cycle_energy_fj={
            "golden": float(nominal.mean()),
            "additive": float(additive_gen.traces_from_toggles(additive_toggles).mean()),
        },
        golden_total_uw=analyze(golden_circuit, library, mapped=golden_mapped).total_uw,
        additive_total_uw=analyze(
            additive_circuit, library, mapped=additive_mapped
        ).total_uw,
    )


def _clear_golden_sides() -> None:
    """Empty the golden-side memo (tests only)."""
    _golden_memo.clear()


def trace_evasion_experiment(
    golden_circuit: Circuit,
    trojanzero_circuit: Circuit,
    library: CellLibrary,
    additive_gates: int = 16,
    n_chips: int = 12,
    seed: int = 37,
    config: Optional[TraceLabConfig] = None,
) -> TraceEvasionReport:
    """The trace-lab evasion experiment, in the aggregate suites' schema.

    Calibrates the TVLA / difference-of-means / correlation trace detectors
    on one golden population, then scores fresh golden, additive-HT, and
    TrojanZero-infected populations measured under identical stimuli and
    noise.  Registered as the ``"traces"`` detector suite.  The golden side
    comes from the per-process memo; this call measures and scores N″ only.
    """
    config = config or TraceLabConfig()
    t0 = time.perf_counter()
    side = _golden_side(golden_circuit, library, additive_gates, n_chips, seed, config)

    mapped = map_circuit(trojanzero_circuit, library)
    generator = TraceGenerator(trojanzero_circuit, library, mapped=mapped)
    toggles = generator.toggles(side.stimuli)
    tz_chips = _population(
        generator, toggles, n_chips, config, side.noise, side.ref_mean,
        derive_seed(seed, _SEED_TROJANZERO),
    )
    tz_scores = _score(side.detectors, tz_chips)
    tz_total = analyze(trojanzero_circuit, library, mapped=mapped).total_uw
    base_total = side.golden_total_uw

    populations = {
        "golden": side.golden_scores,
        "additive": side.additive_scores,
        "trojanzero": tz_scores,
    }
    diagnostics: Dict[str, Any] = {
        "config": {
            "n_sequences": config.n_sequences,
            "n_vectors": config.n_vectors,
            "n_repeats": config.n_repeats,
            "n_chips": n_chips,
            "noise_rel": config.noise_rel,
            "adc_bits": config.adc_bits,
            "jitter_cycles": config.jitter_cycles,
            "variation_dynamic_sigma": config.variation.dynamic_sigma,
        },
        "nets_watched": {**side.nets_watched, "trojanzero": len(generator.nets)},
        "mean_cycle_energy_fj": {
            **side.mean_cycle_energy_fj,
            "trojanzero": float(generator.traces_from_toggles(toggles).mean()),
        },
        "hypothesis_nets": list(side.hypothesis_nets),
        "thresholds": {name: d.threshold for name, d in side.detectors.items()},
        "max_statistic": {
            kind: {name: peak for name, (_rate, peak) in scores.items()}
            for kind, scores in populations.items()
        },
        "wall_s": round(time.perf_counter() - t0, 6),
    }
    rates = {
        kind: {name: rate for name, (rate, _peak) in scores.items()}
        for kind, scores in populations.items()
    }
    return TraceEvasionReport(
        golden_rates=rates["golden"],
        additive_rates=rates["additive"],
        trojanzero_rates=rates["trojanzero"],
        additive_overhead_pct=100.0 * (side.additive_total_uw - base_total) / base_total,
        trojanzero_overhead_pct=100.0 * (tz_total - base_total) / base_total,
        trace_diagnostics=diagnostics,
    )


def trace_detector_suite(
    golden: Circuit,
    infected: Circuit,
    library: CellLibrary,
    *,
    additive_gates: int = 16,
    n_chips: int = 12,
    seed: int = 37,
) -> TraceEvasionReport:
    """Registry adapter: the ``"traces"`` detector suite for ``repro.api``."""
    return trace_evasion_experiment(
        golden,
        infected,
        library,
        additive_gates=additive_gates,
        n_chips=n_chips,
        seed=seed,
    )

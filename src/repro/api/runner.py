"""Experiment execution: specs in, structured serializable records out.

:func:`run_experiment` evaluates one :class:`~repro.api.spec.ExperimentSpec`
into an :class:`ExperimentRecord` — a JSON-native result carrying the power
triple (N / N' / N''), salvage and zero-footprint deltas, Pft (analytic and
Monte-Carlo), detector verdicts, and timings.  :class:`CampaignRunner`
executes a :class:`~repro.api.spec.CampaignSpec` serially or across a
``ProcessPoolExecutor``, streaming records to a JSONL file as cells finish
and skipping already-recorded cells on ``resume``.

Determinism and parity
----------------------
Everything that lands in :meth:`ExperimentRecord.payload_dict` is a pure
function of the spec: two runs of the same spec — in one process or sharded
across workers — produce bit-identical payloads.  Execution artifacts that
legitimately differ between runs (wall-clock timings, structural
compile-cache counters, worker id) live under :attr:`ExperimentRecord.
runtime` and are excluded from the payload.

This split is machine-enforced: ``repro lint`` flags nondeterministic
expressions (``time.*``, ``os.environ``, ``platform.*``, ...) flowing into
record payload fields (RPR201) and ``runtime``/``traces`` values read back
into them (RPR202) — only the ``runtime=`` sinks accept tainted values.

Cells are dispatched circuit-major, so same-benchmark cells drain through
the pool together and each worker reuses its process-global structural
compile cache of :mod:`repro.sim.compiled` — a worker compiles a given
circuit at most once per campaign instead of cold per cell.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from ..core.pipeline import (
    SEED_DETECT,
    TrojanZeroPipeline,
    TrojanZeroResult,
    derive_seed,
)
from ..detect import EvasionReport
from ..power.analysis import PowerDelta, PowerReport
from .chaos import ChaosSpec, FaultInjector, truncate_jsonl_tail
from .registry import DETECTORS, resolve_circuit, resolve_designs
from .spec import CampaignSpec, ExperimentSpec, FleetPolicy, _check_known_keys

#: Bump when ExperimentRecord's serialized layout changes incompatibly.
RECORD_SCHEMA_VERSION = 1


def _power_dict(report: Optional[PowerReport]) -> Optional[Dict[str, float]]:
    if report is None:
        return None
    return {
        "total_uw": report.total_uw,
        "dynamic_uw": report.dynamic_uw,
        "leakage_uw": report.leakage_uw,
        "area_um2": report.area_um2,
        "area_ge": report.area_ge,
    }


def _delta_dict(delta: Optional[PowerDelta]) -> Optional[Dict[str, float]]:
    if delta is None:
        return None
    return {
        "total_uw": delta.total_uw,
        "dynamic_uw": delta.dynamic_uw,
        "leakage_uw": delta.leakage_uw,
        "area_ge": delta.area_ge,
        "area_um2": delta.area_um2,
    }


@dataclass(frozen=True)
class ExperimentRecord:
    """Fully serializable result of one experiment cell.

    The *payload* (everything except :attr:`runtime`) is deterministic given
    the spec; :attr:`runtime` holds execution artifacts (timings, compile
    cache counters) that may differ between otherwise identical runs.
    """

    spec: ExperimentSpec
    schema: int = RECORD_SCHEMA_VERSION
    benchmark: str = ""
    success: bool = False
    gates: int = 0
    inputs: int = 0
    candidates: int = 0
    expendable: int = 0
    accepted_edits: int = 0
    design: Optional[str] = None
    victim: Optional[str] = None
    #: ``{"free": {...}, "modified": {...}, "infected": {...}|None}`` power/
    #: area characterizations of N, N', N''.
    power: Dict[str, Optional[Dict[str, float]]] = field(default_factory=dict)
    #: Salvaged budget ΔP/ΔA = N − N'.
    delta_salvage: Optional[Dict[str, float]] = None
    #: Zero-footprint differential ΔP(TZ)/ΔA(TZ) = N − N''.
    delta_tz: Optional[Dict[str, float]] = None
    #: Trigger characterization (clock source, p_edge, Pft analytic + MC).
    trigger: Optional[Dict[str, Any]] = None
    #: Detector verdicts when the spec names a detector suite.
    detection: Optional[Dict[str, Any]] = None
    #: Set when the cell raised instead of completing; payload fields above
    #: are then defaults.
    error: Optional[str] = None
    #: Side-channel trace-lab diagnostics (acquisition config, per-population
    #: statistics, timings) when the detector suite is trace-based — like
    #: :attr:`runtime`, excluded from :meth:`payload_dict` (it carries wall
    #: times); the deterministic verdicts live in :attr:`detection`.
    traces: Optional[Dict[str, Any]] = None
    #: Execution artifacts — excluded from :meth:`payload_dict`.
    runtime: Dict[str, Any] = field(default_factory=dict)

    # -- convenience ---------------------------------------------------
    @property
    def pft(self) -> Optional[float]:
        return self.trigger.get("pft_analytic") if self.trigger else None

    @property
    def pft_monte_carlo(self) -> Optional[float]:
        return self.trigger.get("pft_monte_carlo") if self.trigger else None

    def evades(self) -> Optional[bool]:
        return self.detection.get("evades") if self.detection else None

    # -- construction --------------------------------------------------
    @classmethod
    def from_run(
        cls,
        spec: ExperimentSpec,
        result: TrojanZeroResult,
        evasion: Optional[EvasionReport] = None,
        runtime: Optional[Dict[str, Any]] = None,
    ) -> "ExperimentRecord":
        """Flatten a live pipeline result (and optional detection report)
        into the serializable record."""
        trigger = None
        if result.trigger is not None:
            t = result.trigger
            trigger = {
                "clock_source": t.clock_source,
                "p_edge": t.p_edge,
                "counter_bits": t.counter_bits,
                "edges_to_fire": t.edges_to_fire,
                "test_vectors": t.test_vectors,
                "pft_analytic": t.pft_analytic,
                "pft_monte_carlo": t.pft_monte_carlo,
            }
        detection = None
        if evasion is not None:
            detection = {
                "suite": spec.detector,
                "golden_rates": dict(evasion.golden_rates),
                "additive_rates": dict(evasion.additive_rates),
                "trojanzero_rates": dict(evasion.trojanzero_rates),
                "additive_overhead_pct": evasion.additive_overhead_pct,
                "trojanzero_overhead_pct": evasion.trojanzero_overhead_pct,
                "evades": evasion.trojanzero_evades(),
                "additive_detected": evasion.additive_detected(),
            }
        run_stats = dict(runtime or {})
        run_stats["compile_stats"] = dict(result.salvage.compile_stats)
        return cls(
            spec=spec,
            benchmark=result.benchmark,
            success=result.success,
            gates=result.salvage.original.num_logic_gates,
            inputs=len(result.thresholds.circuit.inputs),
            candidates=result.salvage.candidate_count,
            expendable=result.salvage.expendable_gates,
            accepted_edits=len(result.salvage.accepted_removals()),
            design=result.insertion.design.name if result.success else None,
            victim=result.insertion.victim if result.success else None,
            power={
                "free": _power_dict(result.power_free),
                "modified": _power_dict(result.power_modified),
                "infected": _power_dict(result.power_infected),
            },
            delta_salvage=_delta_dict(result.salvage.delta),
            delta_tz=_delta_dict(result.delta_tz),
            trigger=trigger,
            detection=detection,
            traces=getattr(evasion, "trace_diagnostics", None),
            runtime=run_stats,
        )

    @classmethod
    def failed(cls, spec: ExperimentSpec, error: str) -> "ExperimentRecord":
        return cls(spec=spec, error=error)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        data = asdict(self)
        data["spec"] = self.spec.to_dict()
        return data

    def payload_dict(self) -> dict:
        """The deterministic portion of the record (no execution artifacts)."""
        data = self.to_dict()
        data.pop("runtime")
        data.pop("traces")
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRecord":
        _check_known_keys(cls, data)
        payload = dict(data)
        payload["spec"] = ExperimentSpec.from_dict(payload["spec"])
        return cls(**payload)

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "ExperimentRecord":
        return cls.from_dict(json.loads(line))


@dataclass
class ExperimentOutcome:
    """In-memory outcome: the record plus the live (non-serializable)
    pipeline result, for callers that need circuits (CLI ``--output``,
    report printing, detection post-mortems)."""

    record: ExperimentRecord
    result: TrojanZeroResult
    evasion: Optional[EvasionReport] = None


def detect_seed_for(seed: Optional[int]) -> int:
    """Detector-suite seed derived from a master experiment seed (legacy
    fixed seed when the spec has none)."""
    return 37 if seed is None else derive_seed(seed, SEED_DETECT)


def execute_experiment(
    spec: ExperimentSpec,
    pipeline: Optional[TrojanZeroPipeline] = None,
) -> ExperimentOutcome:
    """Run one cell, returning the record *and* the live pipeline result."""
    pipeline = pipeline or TrojanZeroPipeline.default()
    circuit = resolve_circuit(spec.circuit)
    designs = resolve_designs(spec.design)
    t0 = time.perf_counter()
    result = pipeline.run(
        circuit,
        p_threshold=spec.pth,
        designs=designs,
        max_candidates=spec.max_candidates,
        monte_carlo_sessions=spec.mc_sessions,
        seed=spec.seed,
    )
    t_pipeline = time.perf_counter() - t0
    evasion: Optional[EvasionReport] = None
    t_detect = 0.0
    if spec.detector is not None and result.success:
        suite = DETECTORS.get(spec.detector)
        t1 = time.perf_counter()
        evasion = suite(
            result.thresholds.circuit,
            result.insertion.infected,
            pipeline.library,
            additive_gates=spec.additive_gates,
            n_chips=spec.detector_chips,
            seed=detect_seed_for(spec.seed),
        )
        t_detect = time.perf_counter() - t1
    runtime = {
        "timings_s": {
            "pipeline": round(t_pipeline, 6),
            "detect": round(t_detect, 6),
            "total": round(time.perf_counter() - t0, 6),
        }
    }
    record = ExperimentRecord.from_run(spec, result, evasion, runtime)
    return ExperimentOutcome(record=record, result=result, evasion=evasion)


def run_experiment(
    spec: ExperimentSpec,
    pipeline: Optional[TrojanZeroPipeline] = None,
) -> ExperimentRecord:
    """Run one cell and return its serializable record."""
    return execute_experiment(spec, pipeline=pipeline).record


def _run_cell(spec: ExperimentSpec) -> ExperimentRecord:
    """One campaign cell: never raises — exceptions become error records."""
    try:
        return run_experiment(spec)
    except Exception as exc:  # noqa: BLE001 — a bad cell must not kill the sweep
        return ExperimentRecord.failed(spec, f"{type(exc).__name__}: {exc}")


def _campaign_worker(spec_dict: dict) -> dict:
    """Picklable worker entry: dict in, dict out (specs/records cross the
    process boundary as JSON-native dicts)."""
    return _run_cell(ExperimentSpec.from_dict(spec_dict)).to_dict()


def load_records(
    path: Union[str, Path], strict: bool = True
) -> List[ExperimentRecord]:
    """Parse a JSONL results file; ``strict`` raises on any invalid line,
    otherwise invalid lines are skipped."""
    return list(iter_records(path, strict))


def iter_records(
    path: Union[str, Path], strict: bool = True
) -> "Iterator[ExperimentRecord]":
    """Stream records from a JSONL results file one at a time (see
    :func:`load_records` for ``strict``).

    Reads line-by-line from the open handle: resume files grow with the
    campaign grid and must never be slurped whole into memory.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                yield ExperimentRecord.from_json_line(line)
            except (ValueError, TypeError, KeyError) as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: invalid record: {exc}"
                    ) from exc


def _missing_trailing_newline(path: Path) -> bool:
    try:
        if path.stat().st_size == 0:
            return False
    except OSError:
        return False
    with open(path, "rb") as f:
        f.seek(-1, 2)
        return f.read(1) != b"\n"


def _trim_partial_tail(path: Path) -> None:
    """Drop a crash-truncated partial final line (byte-level, scanning back
    to the last complete newline) so the healed file parses strictly.  The
    partial record's bytes are unrecoverable either way; its cell was never
    counted done and re-runs."""
    with open(path, "rb+") as handle:
        handle.seek(0, 2)
        pos = handle.tell()
        while pos > 0:
            step = min(4096, pos)
            handle.seek(pos - step)
            chunk = handle.read(step)
            cut = chunk.rfind(b"\n")
            if cut != -1:
                handle.truncate(pos - step + cut + 1)
                return
            pos -= step
        handle.truncate(0)


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` call."""

    records: List[ExperimentRecord]
    #: Cell ids skipped because a record already existed (``resume``).
    skipped: List[str] = field(default_factory=list)
    out_path: Optional[str] = None
    #: Set when the ``max_errors`` circuit breaker stopped submission early.
    aborted: Optional[str] = None
    #: Supervisor fault-tolerance counters (pool rebuilds, retries, ...).
    fleet: Optional[Dict[str, Any]] = None

    @property
    def errors(self) -> List[ExperimentRecord]:
        return [r for r in self.records if r.error is not None]

    @property
    def succeeded(self) -> List[ExperimentRecord]:
        return [r for r in self.records if r.error is None and r.success]

    def summary(self) -> str:
        parts = [
            f"{len(self.records)} cells run",
            f"{len(self.succeeded)} insertions succeeded",
            f"{len(self.errors)} errors",
        ]
        if self.skipped:
            parts.append(f"{len(self.skipped)} skipped (resume)")
        if self.fleet and (self.fleet.get("retries") or self.fleet.get("pool_rebuilds")):
            parts.append(
                f"{self.fleet['retries']} retries / "
                f"{self.fleet['pool_rebuilds']} pool rebuilds"
            )
        if self.aborted:
            parts.append(f"ABORTED ({self.aborted})")
        if self.out_path:
            parts.append(f"records -> {self.out_path}")
        return ", ".join(parts)


@dataclass
class CampaignRunner:
    """Execute a :class:`CampaignSpec`, serially or across worker processes.

    All execution routes through the supervised layer of
    :mod:`repro.api.fleet`: worker death and per-cell timeouts recycle the
    pool and requeue in-flight cells, transient failures retry with seeded
    backoff, and a ``max_errors`` circuit breaker stops submission while
    still finalizing the JSONL sink (see :class:`~repro.api.spec.
    FleetPolicy` for the knobs).

    Parameters
    ----------
    jobs:
        Worker processes; ``<= 1`` runs in-process (and preserves campaign
        order in the JSONL output).
    out:
        JSONL path records are appended to as cells complete.
    resume:
        Skip cells whose :meth:`~repro.api.spec.ExperimentSpec.cell_id`
        already appears in ``out``.
    policy:
        Fault-tolerance policy (timeouts, retries, circuit breaker);
        defaults to :class:`~repro.api.spec.FleetPolicy`'s defaults.
    chaos:
        Fault-injection spec for tests/CI; when ``None``, the
        ``REPRO_CHAOS`` environment variable is consulted (see
        :mod:`repro.api.chaos`).
    """

    campaign: CampaignSpec
    jobs: int = 1
    out: Optional[Union[str, Path]] = None
    resume: bool = False
    policy: Optional[FleetPolicy] = None
    chaos: Optional[ChaosSpec] = None

    def run(
        self, progress: Optional[Callable[[ExperimentRecord], None]] = None
    ) -> CampaignResult:
        if self.resume and self.out is None:
            raise ValueError("resume requires an output JSONL path")
        chaos = self.chaos if self.chaos is not None else ChaosSpec.from_env()
        done_ids = set()
        if self.resume and Path(self.out).exists():
            # Last record wins: a cell can legitimately appear twice (error
            # record then successful retry from a later resume).  Error
            # records do not count as done — a cell whose *latest* outcome
            # raised (worker death, transient I/O failure) must re-run,
            # exactly like a crash-truncated line.  Dedup keys on the
            # canonical spec hash (the same fleet-wide key the service cache
            # and columnar store use), so a record written by any producer —
            # this runner, the fleet service, a hand-edited file — dedups
            # identically.
            latest: Dict[str, ExperimentRecord] = {}
            for rec in iter_records(self.out, strict=False):
                latest[rec.spec.spec_hash()] = rec
            done_ids = {
                spec_key for spec_key, rec in latest.items() if rec.error is None
            }
        pending = [
            spec for spec in self.campaign if spec.spec_hash() not in done_ids
        ]
        skipped = [
            spec.cell_id() for spec in self.campaign if spec.spec_hash() in done_ids
        ]

        sink = None
        truncator = FaultInjector(chaos) if chaos is not None else None
        if self.out is not None:
            out_path = Path(self.out)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            if _missing_trailing_newline(out_path):
                # A crash left a partial final line; trim it back to the
                # last complete record so the healed file parses strictly
                # (the partial cell was never counted done and re-runs).
                _trim_partial_tail(out_path)
            sink = open(self.out, "a", encoding="utf-8")
        records: List[ExperimentRecord] = []
        sink_torn = False
        try:
            for record in self._iter_records(pending, chaos):
                records.append(record)
                if sink is not None:
                    if sink_torn:
                        # A chaos truncation chopped the previous record
                        # mid-line; start this one on a fresh line so the
                        # damage stays confined to the record it hit.
                        sink.write("\n")
                        sink_torn = False
                    line = record.to_json_line() + "\n"
                    sink.write(line)
                    sink.flush()
                    if truncator is not None and truncator.take_truncate(
                        record.spec.cell_id()
                    ):
                        # Chaos: emulate a crash mid-write by chopping the
                        # just-written record in half (byte-level; the
                        # append-mode sink keeps writing at the true EOF).
                        truncate_jsonl_tail(self.out, len(line) // 2 + 1)
                        sink_torn = True
                if progress is not None:
                    progress(record)
        finally:
            if sink is not None:
                sink.close()
        supervisor = getattr(self, "_last_supervisor", None)
        return CampaignResult(
            records=records,
            skipped=skipped,
            out_path=str(self.out) if self.out is not None else None,
            aborted=supervisor.stats.aborted if supervisor is not None else None,
            fleet=supervisor.stats.to_dict() if supervisor is not None else None,
        )

    def _iter_records(
        self, pending: List[ExperimentSpec], chaos: Optional[ChaosSpec] = None
    ):
        # Lazy import: fleet builds on this module's primitives.
        from .fleet import CellSupervisor

        if self.jobs <= 1 or len(pending) <= 1:
            ordered = pending  # campaign order preserved in-process
        else:
            # Cells are supervised one future at a time, yielded in
            # completion order, so JSONL streaming / crash resume / progress
            # are per cell and slow cells don't serialize behind a chunk.
            # Submission stays circuit-major: adjacent same-circuit cells
            # drain through the pool while that circuit's compiled schedule
            # is warm in at least one worker (the fingerprint-keyed cache is
            # process-global, so each worker compiles a given circuit at
            # most once per campaign).
            ordered = sorted(pending, key=lambda s: s.circuit)
        supervisor = CellSupervisor(
            ordered, jobs=self.jobs, policy=self.policy, chaos=chaos
        )
        self._last_supervisor = supervisor
        yield from supervisor.iter_records()


def run_campaign(
    campaign: CampaignSpec,
    jobs: int = 1,
    out: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[Callable[[ExperimentRecord], None]] = None,
    policy: Optional[FleetPolicy] = None,
    chaos: Optional[ChaosSpec] = None,
) -> CampaignResult:
    """One-call convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(
        campaign, jobs=jobs, out=out, resume=resume, policy=policy, chaos=chaos
    ).run(progress)

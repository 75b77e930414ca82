"""Declarative experiment specifications.

One cell of the paper's evaluation grid — benchmark x Pth x trojan design x
detector mode (Table I, Fig. 3, Fig. 7) — is an :class:`ExperimentSpec`; a
whole sweep is a :class:`CampaignSpec`.  Both are frozen dataclasses that
round-trip losslessly through ``to_dict``/``from_dict`` (JSON-native values
only), so campaigns can be written to disk, shipped to worker processes, and
diffed between runs.  The stable :meth:`ExperimentSpec.cell_id` string keys
resume bookkeeping in :mod:`repro.api.runner`.

References (``circuit``, ``design``, ``detector``) are *names*, resolved at
run time against the registries in :mod:`repro.api.registry` — a spec never
holds a live circuit or detector object.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple

#: Table I per-benchmark parameters: registry name -> (Pth, counter bits).
TABLE1_PARAMETERS: Dict[str, Tuple[float, int]] = {
    "c432": (0.975, 2),
    "c499": (0.993, 3),
    "c880": (0.992, 3),
    "c1908": (0.9986, 5),
    "c3540": (0.992, 5),
}


def canonicalize(value: Any) -> Any:
    """Normalize a JSON-native value tree for hashing.

    Two values that serialize differently but mean the same spec must hash
    identically: tuples become lists (dataclass fields round-trip through
    JSON as lists), integral floats become ints (``pth=1.0`` == ``pth=1``,
    and JSON readers are free to hand back either), and dict ordering is
    erased by the sorted-keys dump in :func:`spec_hash`.  Non-integral
    floats pass through untouched — ``repr`` round-trips them exactly.
    """
    if isinstance(value, dict):
        return {k: canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, bool):
        # bool is an int subclass; keep True/False distinct from 1/0.
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def spec_hash(spec: Any) -> str:
    """Canonical SHA-256 hex digest of a spec (or any JSON-native dict).

    Accepts an :class:`ExperimentSpec`, a :class:`CampaignSpec`, or a plain
    ``to_dict()``-shaped mapping.  The digest is a pure function of the
    *meaning* of the spec — key order, tuple-vs-list, and int-vs-integral-
    float representation differences all collapse (see :func:`canonicalize`)
    — so it is safe as a fleet-wide primary key: the result cache of
    :mod:`repro.service.cache`, campaign resume dedup, and the columnar
    store of :mod:`repro.service.store` all key on it.  Payload-bit-identical
    records per spec (guaranteed by ``derive_seed``) are what make a single
    fleet-wide entry per hash sound.

    Stability is pinned by ``tests/test_api.py::TestSpecHash`` — changing
    the canonical form invalidates every cache and store in the wild, so it
    must never drift silently.
    """
    if hasattr(spec, "to_dict"):
        spec = spec.to_dict()
    if not isinstance(spec, dict):
        raise TypeError(
            f"spec_hash expects a spec or dict, got {type(spec).__name__}"
        )
    text = json.dumps(
        canonicalize(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_known_keys(cls, data: dict) -> None:
    """Reject a non-dict, an unknown key, or a missing required key."""
    if not isinstance(data, dict):
        raise ValueError(
            f"{cls.__name__}: expected an object, got {type(data).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"{cls.__name__}: unknown keys {unknown}; known keys: {sorted(known)}"
        )
    missing = sorted(
        f.name
        for f in fields(cls)
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING
    )
    if missing:
        raise ValueError(f"{cls.__name__}: missing keys {missing}")


def _is_int(value: Any) -> bool:
    """True for an int that is not a bool (bool is an int subclass)."""
    return isinstance(value, int) and type(value) is not bool


def _is_number(value: Any) -> bool:
    """True for an int or a float that is neither a bool nor NaN (JSON
    readers accept ``NaN``, and it passes every range check)."""
    return isinstance(value, (int, float)) and type(value) is not bool and value == value


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of the evaluation grid, fully declarative and serializable.

    Attributes
    ----------
    circuit:
        Registry name (``c17`` ... ``c6288``) or a ``.bench`` file path,
        resolved by :func:`repro.api.registry.resolve_circuit`.
    pth:
        Algorithm 1's rare-node threshold Pth.
    design:
        Trojan design reference (e.g. ``counter3``, ``comb2``) resolved by
        :func:`repro.api.registry.resolve_designs`; ``None`` tries the whole
        default HT library, largest design first.
    seed:
        Master seed threaded to *every* RNG draw of the run (ATPG pattern
        fill, bespoke defender vectors, Monte-Carlo Pft sessions, detector
        variation models).  ``None`` keeps the legacy per-module fixed seeds
        (still deterministic, but not independently re-seedable).
    mc_sessions:
        Monte-Carlo Pft validation sessions (0 = analytic Pft only).
    detector:
        Detector-suite reference (``paper`` or ``structural``) resolved by
        :data:`repro.api.registry.DETECTORS`; ``None`` skips the evasion
        experiment.
    """

    circuit: str
    pth: float = 0.992
    design: Optional[str] = None
    seed: Optional[int] = None
    mc_sessions: int = 0
    detector: Optional[str] = None
    detector_chips: int = 30
    additive_gates: int = 16
    max_candidates: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, str):
            raise ValueError(f"circuit must be a str, got {self.circuit!r}")
        for name in ("design", "detector"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be None or a str, got {value!r}")
        if type(self.pth) is bool or not isinstance(self.pth, (int, float)):
            raise ValueError(f"pth must be a number, got {self.pth!r}")
        if not 0.5 < self.pth <= 1.0:
            raise ValueError(f"pth must be in (0.5, 1.0], got {self.pth}")
        if self.seed is not None and (not _is_int(self.seed) or self.seed < 0):
            raise ValueError(
                f"seed must be None or a non-negative int, got {self.seed!r}"
            )
        if not _is_int(self.mc_sessions) or self.mc_sessions < 0:
            raise ValueError(
                f"mc_sessions must be an int >= 0, got {self.mc_sessions!r}"
            )
        if not _is_int(self.detector_chips) or self.detector_chips < 1:
            raise ValueError(
                f"detector_chips must be an int >= 1, got {self.detector_chips!r}"
            )
        if not _is_int(self.additive_gates) or self.additive_gates < 0:
            raise ValueError(
                f"additive_gates must be an int >= 0, got {self.additive_gates!r}"
            )
        if self.max_candidates is not None and (
            not _is_int(self.max_candidates) or self.max_candidates < 0
        ):
            raise ValueError(
                "max_candidates must be None or a non-negative int, "
                f"got {self.max_candidates!r}"
            )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        _check_known_keys(cls, data)
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    # -- identity ------------------------------------------------------
    def cell_id(self) -> str:
        """Stable, human-readable key for resume/dedup bookkeeping."""
        d = self.to_dict()
        return "|".join(f"{k}={d[k]}" for k in sorted(d))

    def spec_hash(self) -> str:
        """Canonical content hash (see module-level :func:`spec_hash`) —
        the fleet-wide primary key for caching and the columnar store."""
        return spec_hash(self.to_dict())

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with some fields replaced (specs are frozen)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry schedule for *transient* cell failures.

    Transient failures (worker death, per-cell timeout, ``OSError``, injected
    chaos faults — see :func:`repro.api.fleet.classify_error`) are retried up
    to ``max_retries`` times with exponential backoff; deterministic pipeline
    exceptions are never retried (re-running a pure function of the spec
    cannot change the outcome).  The backoff jitter is *seeded*: the delay for
    a given (cell, attempt) is a pure function of the spec, so retry schedules
    reproduce exactly across runs (asserted in ``tests/test_fleet.py``).

    Attributes
    ----------
    max_retries:
        Retries after the first attempt (total attempts = ``max_retries + 1``).
    backoff_s:
        Base delay before the first retry.
    backoff_mult:
        Exponential growth factor per further retry.
    backoff_max_s:
        Delay ceiling before jitter.
    jitter:
        Relative jitter span: the delay is scaled by a seeded uniform draw
        from ``[1, 1 + jitter]``.
    """

    max_retries: int = 2
    backoff_s: float = 0.25
    backoff_mult: float = 2.0
    backoff_max_s: float = 30.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if not _is_int(self.max_retries) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be an int >= 0, got {self.max_retries!r}"
            )
        for name in ("backoff_s", "backoff_max_s", "jitter"):
            value = getattr(self, name)
            if not _is_number(value) or value < 0:
                raise ValueError(f"{name} must be a number >= 0, got {value!r}")
        if not _is_number(self.backoff_mult) or self.backoff_mult < 1.0:
            raise ValueError(
                f"backoff_mult must be a number >= 1, got {self.backoff_mult!r}"
            )

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        _check_known_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class FleetPolicy:
    """Fault-tolerance policy for supervised campaign execution.

    Consumed by :class:`repro.api.fleet.CellSupervisor`; every
    :class:`~repro.api.runner.CampaignRunner` run resolves to one of these
    (defaults if none is given).  Like the experiment specs it is frozen and
    JSON round-trippable, so a campaign's fault-tolerance configuration can
    be recorded and replayed.

    Attributes
    ----------
    timeout_s:
        Per-cell wall-clock budget.  A cell past its deadline is treated as
        wedged: its worker pool is recycled (processes hard-killed and
        rebuilt) and the cell is charged a transient ``timeout`` failure.
        ``None`` disables the deadline.  Enforced only in pool mode — a
        single in-process cell cannot be preempted portably.
    retry:
        Transient-failure retry schedule (:class:`RetryPolicy`).
    max_errors:
        Circuit breaker: once this many error *records* have been emitted,
        no further cells are submitted (in-flight cells drain, the JSONL
        sink is flushed and finalized).  ``None`` disables the breaker.
    max_pool_rebuilds:
        Pool collapses tolerated before degrading to serial in-process
        execution for the rest of the campaign.
    """

    timeout_s: Optional[float] = None
    retry: RetryPolicy = RetryPolicy()
    max_errors: Optional[int] = None
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.timeout_s is not None and (
            not _is_number(self.timeout_s) or self.timeout_s <= 0
        ):
            raise ValueError(
                f"timeout_s must be None or a number > 0, got {self.timeout_s!r}"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(f"retry must be an object, got {self.retry!r}")
        if self.max_errors is not None and (
            not _is_int(self.max_errors) or self.max_errors < 1
        ):
            raise ValueError(
                f"max_errors must be None or an int >= 1, got {self.max_errors!r}"
            )
        if not _is_int(self.max_pool_rebuilds) or self.max_pool_rebuilds < 0:
            raise ValueError(
                "max_pool_rebuilds must be an int >= 0, "
                f"got {self.max_pool_rebuilds!r}"
            )

    @property
    def max_attempts(self) -> int:
        return self.retry.max_attempts

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetPolicy":
        _check_known_keys(cls, data)
        payload = dict(data)
        if isinstance(payload.get("retry"), dict):
            payload["retry"] = RetryPolicy.from_dict(payload["retry"])
        return cls(**payload)


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered list of experiment cells plus expansion helpers."""

    name: str
    experiments: Tuple[ExperimentSpec, ...]

    def __len__(self) -> int:
        return len(self.experiments)

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.experiments)

    # -- builders ------------------------------------------------------
    @classmethod
    def table1(
        cls,
        seed: Optional[int] = None,
        mc_sessions: int = 0,
        detector: Optional[str] = None,
        detector_chips: int = 30,
        additive_gates: int = 16,
    ) -> "CampaignSpec":
        """The paper's Table I grid: five benchmarks at their published
        (Pth, counter-bits) operating points."""
        cells = tuple(
            ExperimentSpec(
                circuit=name,
                pth=pth,
                design=f"counter{bits}",
                seed=seed,
                mc_sessions=mc_sessions,
                detector=detector,
                detector_chips=detector_chips,
                additive_gates=additive_gates,
            )
            for name, (pth, bits) in TABLE1_PARAMETERS.items()
        )
        return cls(name="table1", experiments=cells)

    @classmethod
    def sweep(
        cls,
        circuits: Sequence[str],
        pths: Sequence[float],
        designs: Sequence[Optional[str]] = (None,),
        seeds: Sequence[Optional[int]] = (None,),
        detectors: Sequence[Optional[str]] = (None,),
        mc_sessions: int = 0,
        detector_chips: int = 30,
        additive_gates: int = 16,
        max_candidates: Optional[int] = None,
        name: str = "sweep",
    ) -> "CampaignSpec":
        """Cartesian-product grid, circuit-major so that consecutive cells
        share a circuit (and thus a warm structural compile cache) within
        each campaign worker, with Pth innermost so that consecutive cells
        also share one Phase A (:func:`repro.core.pipeline.phase_a`)."""
        cells = tuple(
            ExperimentSpec(
                circuit=circuit,
                pth=pth,
                design=design,
                seed=seed,
                mc_sessions=mc_sessions,
                detector=detector,
                detector_chips=detector_chips,
                additive_gates=additive_gates,
                max_candidates=max_candidates,
            )
            for circuit, design, detector, seed, pth in itertools.product(
                circuits, designs, detectors, seeds, pths
            )
        )
        return cls(name=name, experiments=cells)

    @classmethod
    def of(cls, experiments: Iterable[ExperimentSpec], name: str = "campaign") -> "CampaignSpec":
        return cls(name=name, experiments=tuple(experiments))

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "experiments": [spec.to_dict() for spec in self.experiments],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        _check_known_keys(cls, data)
        if not isinstance(data["experiments"], (list, tuple)):
            raise ValueError(
                "CampaignSpec: experiments must be a list, "
                f"got {type(data['experiments']).__name__}"
            )
        return cls(
            name=data["name"],
            experiments=tuple(
                ExperimentSpec.from_dict(d) for d in data["experiments"]
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Names are wrapped where their callers look them up (``repro.core.pipeline``
imports ``salvage`` by name, so the wrapper goes on
``repro.core.pipeline.salvage``), methods on their classes, and detector
suites by re-registering their ``DETECTORS`` entries.

Time metrics are the median, over the cells (service jobs, client ops)
the layer ran in, of the span's summed time within that cell; ``self``
metrics subtract the time covered by child spans.  Count metrics are means
over the same cells; ratio metrics are totals over the run.  A layer that
never ran reads zero; a metric whose hooks all failed to install is
absent.
"""

from __future__ import annotations

from collections.abc import Sized
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from spans import (
    Hook,
    RegistryHook,
    Span,
    median_or_zero,
    per_trace,
    per_trace_count,
    self_times,
)

#: The PPSFP engine's auto-dispatch shape: more patterns than one word and
#: at least this many faults.
WIDE_PATTERNS = 64
WIDE_FAULTS = 16


def _podem_counts(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    status = getattr(getattr(result, "status", None), "name", "")
    span.counts[status.lower()] = 1.0
    span.counts["backtracks"] = float(getattr(result, "backtracks", 0))


def _faultsim_counts(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    patterns = args[1] if len(args) > 1 else kwargs.get("patterns")
    faults = args[2] if len(args) > 2 else kwargs.get("faults")
    rows = int(np.atleast_2d(np.asarray(patterns)).shape[0])
    wide = rows > WIDE_PATTERNS and isinstance(faults, Sized) and len(faults) >= WIDE_FAULTS
    span.counts["wide"] = float(wide)


def _compact_counts(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    patterns = args[1] if len(args) > 1 else kwargs.get("patterns")
    span.counts["rows_in"] = float(np.asarray(patterns).shape[0])
    span.counts["rows_out"] = float(np.asarray(result).shape[0])


def _salvage_counts(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    removals = getattr(result, "removals", [])
    span.counts["trials"] = float(
        sum(1 for r in removals if getattr(r, "tied_value", -1) != -1)
    )
    span.counts["accepted"] = float(sum(1 for r in removals if getattr(r, "accepted", False)))


def _cache_counts(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.counts["hit"] = float(result is not None)


def _job_trace(args: tuple, kwargs: dict) -> Optional[str]:
    return getattr(args[1], "job_id", None) if len(args) > 1 else None


HOOKS: List[Any] = [
    Hook("repro.core.pipeline", "compute_thresholds", "core.thresholds"),
    Hook("repro.core.pipeline", "salvage", "core.salvage", _salvage_counts),
    Hook("repro.core.pipeline", "insert_trojan_zero", "core.insertion"),
    Hook("repro.core.pipeline", "trigger_report", "trojan.trigger"),
    Hook("repro.core.thresholds", "generate_test_set", "atpg.generate"),
    Hook("repro.core.thresholds", "optimize_netlist", "power.synthesis"),
    Hook("repro.core.thresholds", "analyze", "power.analyze"),
    Hook("repro.core.salvage", "analyze", "power.analyze"),
    Hook("repro.core.insertion", "analyze", "power.analyze"),
    Hook("repro.core.salvage", "functional_test", "sim.functional_test"),
    Hook("repro.core.insertion", "functional_test", "sim.functional_test"),
    Hook("repro.prob.propagate", "signal_probabilities", "prob.signal_probabilities"),
    Hook("repro.core.insertion", "signal_probabilities", "prob.signal_probabilities"),
    Hook("repro.trojan.trigger", "signal_probabilities", "prob.signal_probabilities"),
    Hook("repro.atpg.generate", "_compact", "atpg.compact", _compact_counts),
    Hook("repro.atpg.podem", "PodemEngine.generate", "atpg.podem", _podem_counts),
    Hook("repro.atpg.faultsim", "FaultSimulator.run", "atpg.faultsim", _faultsim_counts),
    RegistryHook("repro.api.registry", "DETECTORS", "paper", "detect.paper"),
    RegistryHook("repro.api.registry", "DETECTORS", "traces", "traces.suite"),
    Hook("repro.api.fleet", "run_experiment", "api.cell"),
    Hook("repro.api.fleet", "CellSupervisor.iter_records", "api.supervisor"),
    Hook("repro.service.server", "FleetServer._run_job", "service.job", trace=_job_trace),
    Hook("repro.service.client", "FleetClient.submit", "service.submit"),
    Hook("repro.service.client", "FleetClient.records", "service.poll"),
    Hook("repro.service.cache", "ResultCache.get", "service.cache.get", _cache_counts),
    Hook("repro.service.cache", "ResultCache.put", "service.cache.put"),
    Hook("repro.service.store", "ResultStore.ingest", "service.store.ingest"),
    Hook("repro.service.store", "ResultStore.compact", "service.store.compact"),
    Hook("repro.service.store", "ResultStore.query", "service.store.query"),
]

#: metric -> (span, "total" | "self"); median per cell / job / op.
TIMES = {
    "atpg.generate.s": ("atpg.generate", "total"),
    "atpg.compact.s": ("atpg.compact", "total"),
    "atpg.podem.s": ("atpg.podem", "total"),
    "atpg.faultsim.s": ("atpg.faultsim", "total"),
    "core.thresholds.s": ("core.thresholds", "self"),
    "core.salvage.s": ("core.salvage", "total"),
    "core.insertion.s": ("core.insertion", "total"),
    "power.synthesis.s": ("power.synthesis", "total"),
    "power.analyze.s": ("power.analyze", "total"),
    "prob.signal_probabilities.s": ("prob.signal_probabilities", "total"),
    "sim.functional_test.s": ("sim.functional_test", "total"),
    "trojan.trigger.s": ("trojan.trigger", "total"),
    "detect.paper.s": ("detect.paper", "total"),
    "traces.suite.s": ("traces.suite", "total"),
    "api.cell.s": ("api.cell", "self"),
    "api.supervisor.s": ("api.supervisor", "self"),
    "service.submit.s": ("service.submit", "total"),
    "service.cache.get.s": ("service.cache.get", "total"),
    "service.cache.put.s": ("service.cache.put", "total"),
    "service.store.ingest.s": ("service.store.ingest", "total"),
    "service.store.compact.s": ("service.store.compact", "total"),
    "service.store.query.s": ("service.store.query", "total"),
}

#: metric -> (span, counter); mean per traced cell / job / op.
COUNTS = {
    "atpg.podem.calls": ("atpg.podem", "calls"),
    "atpg.podem.backtracks": ("atpg.podem", "backtracks"),
    "atpg.podem.aborted": ("atpg.podem", "aborted"),
    "atpg.podem.untestable": ("atpg.podem", "untestable"),
    "atpg.faultsim.calls": ("atpg.faultsim", "calls"),
    "atpg.faultsim.wide_calls": ("atpg.faultsim", "wide"),
    "core.salvage.trials": ("core.salvage", "trials"),
    "power.analyze.calls": ("power.analyze", "calls"),
    "sim.functional_test.calls": ("sim.functional_test", "calls"),
    "service.polls_per_job": ("service.poll", "calls"),
}

#: metric -> (span, numerator counter, denominator counter); run totals.
RATIOS = {
    "atpg.podem.detect_ratio": ("atpg.podem", "detected", "calls"),
    "atpg.patterns_kept_ratio": ("atpg.compact", "rows_out", "rows_in"),
    "core.salvage.accept_ratio": ("core.salvage", "accepted", "trials"),
    "service.cache.hit_ratio": ("service.cache.get", "hit", "calls"),
}

def _total(spans: Sequence[Span], name: str, key: str) -> float:
    return sum(
        1.0 if key == "calls" else s.counts.get(key, 0.0) for s in spans if s.name == name
    )


def span_metrics(spans: Sequence[Span], absent_spans: Sequence[str]) -> Dict[str, float]:
    """Per-layer metrics from one traced pass's spans; metrics whose span
    had no installed hook are left out."""
    selves = self_times(spans)
    out: Dict[str, float] = {}
    for metric, (name, mode) in TIMES.items():
        if name not in absent_spans:
            out[metric] = median_or_zero(
                per_trace(spans, selves, name, mode == "self").values()
            )
    for metric, (name, key) in COUNTS.items():
        if name not in absent_spans:
            counts = list(per_trace_count(spans, name, key).values())
            out[metric] = sum(counts) / len(counts) if counts else 0.0
    for metric, (name, num, den) in RATIOS.items():
        if name not in absent_spans:
            denominator = _total(spans, name, den)
            out[metric] = _total(spans, name, num) / denominator if denominator else 0.0
    if "atpg.generate" not in absent_spans:
        cell_time = sum(s.duration for s in spans if s.name == "api.cell")
        atpg_time = sum(selves[s.span_id] for s in spans if s.name.startswith("atpg."))
        out["atpg.cell_share"] = atpg_time / cell_time if cell_time else 0.0
    return out

"""Shared fixtures for the benchmark harness.

The full Table-I pipeline is expensive (tens of seconds for the two large
benchmarks), so the five runs are computed once per session — through the
declarative :mod:`repro.api` front door — and shared by the table/figure
benches.  Each cached run is an :class:`repro.api.ExperimentOutcome`, so
benches can consume either the live :class:`TrojanZeroResult` (circuits,
detector post-mortems) or the serializable :class:`ExperimentRecord`
(Table-I reporting).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import TABLE1_PARAMETERS, ExperimentSpec, execute_experiment
from repro.core import TrojanZeroPipeline
from repro.power import tech65_library

#: The perf record the ``test_perf_*`` benches merge their sections into.
BENCH_PERF_PATH = Path(__file__).resolve().parents[1] / "BENCH_perf.json"


def update_perf_report(section: str, payload: dict) -> None:
    """Merge one section into ``BENCH_perf.json`` (sections own their keys).

    Only when ``REPRO_BENCH_WRITE=1``: the perf benches also run in the
    plain test suite, which must not rewrite the tracked record.
    """
    if os.environ.get("REPRO_BENCH_WRITE") != "1":
        return
    report = {}
    if BENCH_PERF_PATH.exists():
        try:
            report = json.loads(BENCH_PERF_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report[section] = payload
    BENCH_PERF_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


#: The paper's Table I parameters: benchmark -> (Pth, counter bits).
PAPER_PARAMETERS = TABLE1_PARAMETERS


@pytest.fixture(scope="session")
def library():
    return tech65_library()


@pytest.fixture(scope="session")
def pipeline():
    return TrojanZeroPipeline.default()


_OUTCOME_CACHE = {}


def run_outcome_cached(pipeline, name):
    """Run (or fetch) the full TrojanZero flow for one paper benchmark."""
    if name not in _OUTCOME_CACHE:
        pth, bits = PAPER_PARAMETERS[name]
        spec = ExperimentSpec(circuit=name, pth=pth, design=f"counter{bits}")
        _OUTCOME_CACHE[name] = execute_experiment(spec, pipeline=pipeline)
    return _OUTCOME_CACHE[name]


def run_benchmark_cached(pipeline, name):
    """The live pipeline result of one cached Table-I run."""
    return run_outcome_cached(pipeline, name).result


def run_record_cached(pipeline, name):
    """The serializable ExperimentRecord of one cached Table-I run."""
    return run_outcome_cached(pipeline, name).record


@pytest.fixture(scope="session")
def table1_results(pipeline):
    """All five Table-I pipeline results, keyed by benchmark name."""
    return {name: run_benchmark_cached(pipeline, name) for name in PAPER_PARAMETERS}


@pytest.fixture(scope="session")
def table1_records(pipeline):
    """All five Table-I ExperimentRecords, keyed by benchmark name."""
    return {name: run_record_cached(pipeline, name) for name in PAPER_PARAMETERS}

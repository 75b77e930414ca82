"""Payload golden corpus: record payloads must not drift across code changes.

The spec-hash cache and the result store assume that a spec's payload is a
pure function of the spec.  Each cell of a small grid (c17/c432/c499 × seeds
0, 1 × detector ``None``/``paper``, 64 Monte-Carlo sessions) plus a few extra
cells is run and the sha256 of its sorted-key ``payload_dict()`` JSON is
compared with the digest checked in next to this file.  The extras are c432
at its Table I point (Pth 0.975, a 2-bit counter), where the trigger fires in
the Monte-Carlo (``pft_monte_carlo`` = 0.125 on both seeds) and one cell runs
the ``traces`` detector, a second seed-1 ``traces`` cell at Pth 0.95, which
shares the first one's trace-lab golden side while the memo of
:mod:`repro.traces.lab` still holds it, and a c880 seed-0 cell whose netlist
Phase A cleanup shrinks substantially.

Cells that repeat a (circuit, seed) share one Phase A through the per-process
memo of :func:`repro.core.pipeline.phase_a` (every ``paper`` cell, and the
c432 extras while the memo still holds their seed), so the corpus also pins
payloads computed from a shared Phase A.

Regenerate the digests only when a payload is *meant* to change:

    PYTHONPATH=src python tests/test_payload_goldens.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run_experiment

GOLDENS = Path(__file__).with_name("payload_goldens.json")

CIRCUITS = ("c17", "c432", "c499")
SEEDS = (0, 1)
DETECTORS = (None, "paper")
MC_SESSIONS = 64
#: c432's Table I operating point.
C432_TABLE1 = {"pth": 0.975, "design": "counter2"}
#: Cells outside the product grid: (circuit, seed, detector, other fields).
EXTRA_CELLS = (
    ("c432", 0, None, C432_TABLE1),
    ("c432", 1, None, C432_TABLE1),
    ("c432", 1, "traces", C432_TABLE1),
    ("c432", 1, "traces", {"pth": 0.95, "design": "counter2"}),
    ("c880", 0, None, {}),
)
DEFAULTS = ExperimentSpec(circuit="c17")


def grid():
    cells = [
        (circuit, seed, detector, {})
        for circuit, seed, detector in itertools.product(CIRCUITS, SEEDS, DETECTORS)
    ] + list(EXTRA_CELLS)
    return [
        ExperimentSpec(
            circuit=circuit, seed=seed, detector=detector, mc_sessions=MC_SESSIONS, **fields
        )
        for circuit, seed, detector, fields in cells
    ]


def key(spec: ExperimentSpec) -> str:
    base = f"{spec.circuit}/seed={spec.seed}/detector={spec.detector}"
    if (spec.pth, spec.design) == (DEFAULTS.pth, DEFAULTS.design):
        return base
    return f"{base}/pth={spec.pth}/design={spec.design}"


def payload_digest(spec: ExperimentSpec) -> str:
    payload = run_experiment(spec).payload_dict()
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("spec", grid(), ids=key)
def test_payload_matches_golden(spec):
    goldens = _load_goldens()
    assert key(spec) in goldens, f"no golden digest for {key(spec)}"
    assert payload_digest(spec) == goldens[key(spec)]


def test_corpus_covers_exactly_the_grid():
    assert set(_load_goldens()) == {key(spec) for spec in grid()}


def main() -> int:
    goldens = {key(spec): payload_digest(spec) for spec in grid()}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} digests to {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Payload golden corpus: record payloads must not drift across code changes.

The spec-hash cache and the result store assume that a spec's payload is a
pure function of the spec.  Each cell of a small grid (c17/c432/c499 × seeds
0, 1 × detector ``None``/``paper``, 64 Monte-Carlo sessions, plus a c880
seed-0 cell whose netlist Phase A cleanup shrinks substantially) is run and the
sha256 of its sorted-key ``payload_dict()`` JSON is compared with the digest
checked in next to this file.

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
#: Cells outside the product grid: (circuit, seed, detector).
EXTRA_CELLS = (("c880", 0, None),)


def grid():
    cells = list(itertools.product(CIRCUITS, SEEDS, DETECTORS)) + list(EXTRA_CELLS)
    return [
        ExperimentSpec(circuit=circuit, seed=seed, detector=detector, mc_sessions=MC_SESSIONS)
        for circuit, seed, detector in cells
    ]


def key(spec: ExperimentSpec) -> str:
    return f"{spec.circuit}/seed={spec.seed}/detector={spec.detector}"


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

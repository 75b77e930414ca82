"""The benchmark's three workloads, their inputs, and their output checks.

* ``table1-grid`` — TrojanZero cells at the paper's Table I operating points
  for c432, c499 and c3540, every cell with its own (circuit, seed), no
  detector.  Phase A ATPG (compaction, PODEM, fault simulation) is most of
  every cell.  c1908 is left out: one cell takes ~26 s and would set the
  run length alone; c3540 has the same compaction-bound shape.  c880 is
  left out: its PODEM work swings from 4.1 to 7.2 s between seeds, so one
  c880 cell would set the run-to-run spread; c432 and c499 carry PODEM.
* ``pth-sweep`` — c432 at one seed, Pth stratified over [0.90, 0.99),
  detector alternating ``paper`` / ``traces``.  Every cell shares one
  Phase A, so salvage, insertion, trigger and the detectors show here.
* ``service-mix`` — an in-process fleet server on loopback with an empty
  data dir; one client thread in a closed loop with one job in flight.
  About one fresh job (never-seen c17 cells) per three resubmits of
  finished campaigns (all cache hits), and a store query every
  :data:`QUERY_EVERY_JOBS` jobs.  Control plane, cache and store do the
  work; ATPG does almost none.

A run does a fixed number of rounds (a fixed mix of cells or jobs), sized
from its seconds with :data:`ROUND_S`: the work a run measures, and so the
mix its medians are taken over, is set by ``--seconds`` alone and not by
how fast the host or the program happened to be.  Cells run in-process and
serially: on a 2-core host a process pool's workers contend with the
driver.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

import numpy as np

import hostspeed

WORKLOADS = ("table1-grid", "pth-sweep", "service-mix")
DEFAULT_SEED = 1
MC_SESSIONS = 64

#: Table I operating points (Pth, counter bits) of the circuits measured.
TABLE1_POINTS = {
    "c432": (0.975, 2),
    "c499": (0.993, 3),
    "c3540": (0.992, 5),
}
#: One table1-grid round.  The long numpy-heavy c3540 cell stays a quarter
#: of the round's time, and the short c432/c499 cells hold the median.
TABLE1_ROUND = ("c432", "c499") * 5 + ("c3540",)
#: Nominal seconds of one round at the commit that defined the benchmark.
ROUND_S = {"table1-grid": 35.0, "pth-sweep": 10.0, "service-mix": 0.05}
PTH_RANGE = (0.90, 0.99)
PTH_CELLS_PER_ROUND = 4
SERVICE_CIRCUIT = "c17"
SERVICE_CELLS_PER_JOB = 2
HITS_PER_FRESH = 3
QUERY_EVERY_JOBS = 10
#: Record-poll interval, well under the ~8 ms cache-hit latency (the
#: client's 0.2 s default would round every latency up to 200 ms).
POLL_S = 0.002
#: Kernel calls in the burst taken after each cell / each service round.
CELL_SAMPLES = 10
ROUND_SAMPLES = 3
#: Consecutive failed service ops after which the loop gives up.
MAX_CONSECUTIVE_FAILURES = 5


def sub_seed(*parts: int) -> int:
    """Deterministic 32-bit seed derived from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def cell_key(spec: Any) -> str:
    """The benchmark's own name for a cell (independent of program hashes)."""
    return (
        f"{spec.circuit}|pth={spec.pth}|design={spec.design}|seed={spec.seed}"
        f"|mc={spec.mc_sessions}|detector={spec.detector}"
    )


def payload_digest(payload: dict) -> str:
    """sha256 of the sorted-key JSON of a record's payload."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Hex digits of each digest kept in ``goldens.json``.
GOLDEN_HEX = 16


def golden_mismatches(digests: Dict[str, str], goldens: Dict[str, str]) -> List[str]:
    """Keys whose digest differs from its golden (keys without one are
    not compared)."""
    return sorted(
        k for k, d in digests.items() if k in goldens and not d.startswith(goldens[k])
    )


# -- results ------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation: a cell, a service job, or a store query."""

    kind: str  # "cell" | "fresh" | "hit" | "query"
    raw_s: float
    records: int = 0
    failed: bool = False
    compile: Dict[str, int] = field(default_factory=dict)


@dataclass
class Pass:
    """What one timed pass over a workload produced."""

    ops: List[Op] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: cell key -> payload digest, in first-seen order.
    digests: Dict[str, str] = field(default_factory=dict)
    #: cell key -> the op that computed it.
    op_of: Dict[str, Op] = field(default_factory=dict)

    def fail(self, op: Op, message: str) -> None:
        op.failed = True
        self.failures.append(message)


# -- set-up -------------------------------------------------------------------


def setup(workload: str, run_dir: Path) -> SimpleNamespace:
    """Everything a pass needs before its first timed operation: imports,
    the pipeline and cell library, circuit resolution and, for
    ``service-mix``, a started server that answers ``/healthz``."""
    from repro.api.registry import resolve_circuit
    from repro.api.runner import run_experiment
    from repro.api.spec import CampaignSpec, ExperimentSpec
    from repro.core.pipeline import TrojanZeroPipeline

    env = SimpleNamespace(
        workload=workload,
        ExperimentSpec=ExperimentSpec,
        CampaignSpec=CampaignSpec,
        run_experiment=run_experiment,
        pipeline=TrojanZeroPipeline.default(),
        server=None,
        client=None,
        data_dir=None,
    )
    circuits = {
        "table1-grid": tuple(TABLE1_POINTS),
        "pth-sweep": ("c432",),
        "service-mix": (SERVICE_CIRCUIT,),
    }[workload]
    for name in circuits:
        resolve_circuit(name)
    if workload == "service-mix":
        from repro.service.client import FleetClient
        from repro.service.server import FleetServer

        run_dir.mkdir(parents=True, exist_ok=True)
        env.data_dir = Path(tempfile.mkdtemp(prefix="fleet-", dir=run_dir))
        env.server = FleetServer(data_dir=env.data_dir, jobs=1).start()
        env.client = FleetClient(env.server.url, poll_s=POLL_S)
        env.client.wait_ready()
    return env


def teardown(env: SimpleNamespace) -> None:
    """Stop the server and delete its data dir (outside any timed phase)."""
    if env.server is not None:
        env.server.close()
        env.server = None
    if env.data_dir is not None:
        shutil.rmtree(env.data_dir, ignore_errors=True)
        env.data_dir = None


def compile_snapshot() -> Dict[str, int]:
    """Structural compile-cache counters, or ``{}`` if the program has none."""
    try:
        from repro.sim.compiled import COMPILE_STATS

        return dict(COMPILE_STATS.snapshot())
    except (ImportError, AttributeError):
        return {}


def clear_compile_cache() -> None:
    """Empty the shared compile cache so two passes start equally cold."""
    try:
        from repro.sim import compiled
    except ImportError:
        return
    cache = getattr(compiled, "_SHARED_CACHE", None)
    if cache is not None:
        cache.clear()


def _delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before.get(k, 0) for k in after}


# -- in-process cells ---------------------------------------------------------


def _check_record(record: Any, key: str, result: Pass, op: Op) -> Optional[dict]:
    """Structural checks of one cell record; returns its payload or None."""
    if record.error is not None:
        result.fail(op, f"{key}: error record: {record.error}")
        return None
    payload = record.payload_dict()
    if record.success:
        free = payload["power"]["free"]["total_uw"]
        infected = payload["power"]["infected"]["total_uw"]
        # ΔP(TZ) = N − N'' has no fixed sign (−0.038 µW on c432): check
        # only that the record is self-consistent.
        if abs((free - infected) - payload["delta_tz"]["total_uw"]) > 1e-6:
            result.fail(op, f"{key}: delta_tz != free - infected")
        pft = (payload.get("trigger") or {}).get("pft_analytic")
        if pft is not None and not 0.0 <= pft <= 1.0:
            result.fail(op, f"{key}: pft {pft} outside [0, 1]")
    return payload


def _run_cell(env, spec, index, tracer, result: Pass, power_of: Dict[str, str]) -> Any:
    """Run, time and check one cell; returns its record (None on failure)."""
    key = cell_key(spec)
    op = Op(kind="cell", raw_s=0.0, records=1)
    before = compile_snapshot()
    span = None
    if tracer is not None:
        tracer.set_trace(key)
        span = tracer.open("api.cell")
    t0 = time.perf_counter()
    try:
        record = env.run_experiment(spec, env.pipeline)
    except Exception as exc:  # noqa: BLE001 — a failed cell is a counted failure
        record = None
        error = f"{type(exc).__name__}: {exc}"
    op.raw_s = time.perf_counter() - t0
    if span is not None:
        tracer.close(span)
        tracer.set_trace(None)
    op.compile = _delta(before, compile_snapshot())
    index.sample(CELL_SAMPLES, op.raw_s)
    result.ops.append(op)
    if record is None:
        result.fail(op, f"{key}: raised {error}")
        return None
    payload = _check_record(record, key, result, op)
    if payload is None:
        return None
    result.digests[key] = payload_digest(payload)
    result.op_of[key] = op
    # The power of N is Phase A's synthesis and analysis, which no seed or
    # Pth reaches: every cell of one circuit must report the same one.
    free = json.dumps(payload["power"]["free"], sort_keys=True)
    if power_of.setdefault(spec.circuit, free) != free:
        result.fail(op, f"{key}: power of N differs between cells of {spec.circuit}")
    return record


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds a run of ``seconds`` does (at least one)."""
    return max(1, round(seconds / ROUND_S[workload]))


def table1_specs(env, seed: int, round_no: int) -> List[Any]:
    specs = []
    for i, name in enumerate(TABLE1_ROUND):
        pth, bits = TABLE1_POINTS[name]
        specs.append(
            env.ExperimentSpec(
                circuit=name,
                pth=pth,
                design=f"counter{bits}",
                seed=sub_seed(seed, round_no, i),
                mc_sessions=MC_SESSIONS,
            )
        )
    return specs


def pth_sweep_specs(env, seed: int, round_no: int) -> List[Any]:
    """One stratified round: each cell's Pth in its own quarter of the
    range, offset by a seed-drawn fraction; detectors alternate."""
    low, high = PTH_RANGE
    offset = float(np.random.default_rng(sub_seed(seed, 1, round_no)).random())
    cell_seed = sub_seed(seed, 0)
    specs = []
    for i in range(PTH_CELLS_PER_ROUND):
        pth = round(low + (high - low) * (i + offset) / PTH_CELLS_PER_ROUND, 4)
        specs.append(
            env.ExperimentSpec(
                circuit="c432",
                pth=pth,
                seed=cell_seed,
                mc_sessions=MC_SESSIONS,
                detector=("paper", "traces")[(i + round_no) % 2],
            )
        )
    return specs


def _run_cells(env, seed, seconds, index, tracer, specs_for) -> Pass:
    result = Pass()
    power_of: Dict[str, str] = {}
    candidates = []
    for round_no in range(rounds_for(env.workload, seconds)):
        for spec in specs_for(env, seed, round_no):
            record = _run_cell(env, spec, index, tracer, result, power_of)
            if record is not None:
                candidates.append((spec.pth, record.candidates, cell_key(spec)))
    if env.workload == "pth-sweep":
        # One seed, so one Phase A: a higher Pth can only shrink the
        # candidate set.
        ordered = sorted(candidates)
        for (p0, c0, _), (p1, c1, key) in zip(ordered, ordered[1:]):
            if p1 > p0 and c1 > c0:
                result.fail(result.op_of[key], f"{key}: candidates rose from {c0} to {c1}")
    return result


# -- service ------------------------------------------------------------------


def _fresh_campaign(env, seed: int, job_no: int):
    rng = np.random.default_rng(sub_seed(seed, 3, job_no))
    cells = [
        env.ExperimentSpec(
            circuit=SERVICE_CIRCUIT,
            pth=round(float(rng.uniform(0.55, 0.95)), 3),
            seed=sub_seed(seed, 4, job_no, i),
            mc_sessions=MC_SESSIONS,
        )
        for i in range(SERVICE_CELLS_PER_JOB)
    ]
    return env.CampaignSpec.of(cells, name=f"fresh-{job_no}")


def _run_job(env, campaign, kind: str, tracer, result: Pass, label: str) -> Op:
    op = Op(kind=kind, raw_s=0.0)
    before = compile_snapshot()
    if tracer is not None:
        tracer.set_trace(label)
    t0 = time.perf_counter()
    job_id = env.client.submit(campaign)
    records = list(env.client.stream(job_id, poll_s=POLL_S, timeout_s=120.0))
    op.raw_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.set_trace(None)
    op.compile = _delta(before, compile_snapshot())
    op.records = len(records)
    result.ops.append(op)
    status = env.client.status(job_id)
    n = len(campaign)
    if status.state != "done":
        result.fail(op, f"{label}: job {job_id} ended {status.state!r}")
    if len(records) != n or status.n_records != n:
        result.fail(op, f"{label}: {len(records)} records for {n} cells")
    expected_cached = 0 if kind == "fresh" else n
    if status.n_cached != expected_cached:
        result.fail(op, f"{label}: n_cached {status.n_cached}, expected {expected_cached}")
    for record in records:
        key = cell_key(record.spec)
        if record.error is not None:
            result.fail(op, f"{key}: error record: {record.error}")
            continue
        digest = payload_digest(record.payload_dict())
        if kind == "fresh":
            result.digests[key] = digest
            result.op_of[key] = op
        elif result.digests.get(key) != digest:
            result.fail(op, f"{key}: cache-hit payload differs from the fresh one")
    return op


def _run_query(env, tracer, result: Pass, expected_rows: int, label: str) -> None:
    op = Op(kind="query", raw_s=0.0)
    if tracer is not None:
        tracer.set_trace(label)
    t0 = time.perf_counter()
    rows = env.server.store.query(columns=("spec_hash",), circuit=SERVICE_CIRCUIT)
    op.raw_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.set_trace(None)
    result.ops.append(op)
    if len(rows["spec_hash"]) != expected_rows:
        result.fail(op, f"{label}: query saw {len(rows['spec_hash'])} rows, "
                        f"expected {expected_rows}")


def _run_service(env, seed, seconds, index, tracer) -> Pass:
    from repro.service.client import FleetServiceError

    result = Pass()
    rng = np.random.default_rng(sub_seed(seed, 2))
    finished: List[Any] = []
    jobs = fresh_no = consecutive = 0
    for _ in range(rounds_for(env.workload, seconds)):
        round_start = len(result.ops)
        for kind in ["fresh"] + ["hit"] * HITS_PER_FRESH:
            if kind == "fresh":
                campaign = _fresh_campaign(env, seed, fresh_no)
                fresh_no += 1
            elif finished:
                campaign = finished[int(rng.integers(len(finished)))]
            else:
                break  # the fresh job failed; its failure is recorded
            label = f"op-{len(result.ops):05d}"
            try:
                op = _run_job(env, campaign, kind, tracer, result, label)
            except FleetServiceError as exc:
                op = Op(kind=kind, raw_s=0.0)
                result.ops.append(op)
                result.fail(op, f"{label}: {exc}")
                consecutive += 1
                if consecutive >= MAX_CONSECUTIVE_FAILURES:
                    return result
                continue
            consecutive = 0
            if kind == "fresh" and not op.failed:
                finished.append(campaign)
            jobs += 1
            if jobs % QUERY_EVERY_JOBS == 0:
                label = f"op-{len(result.ops):05d}"
                _run_query(env, tracer, result, len(result.digests), label)
        index.sample(ROUND_SAMPLES, sum(op.raw_s for op in result.ops[round_start:]))
    return result


def run_pass(env, seed: int, seconds: float, index, tracer=None) -> Pass:
    """One timed pass over ``env.workload``."""
    if env.workload == "table1-grid":
        return _run_cells(env, seed, seconds, index, tracer, table1_specs)
    if env.workload == "pth-sweep":
        return _run_cells(env, seed, seconds, index, tracer, pth_sweep_specs)
    return _run_service(env, seed, seconds, index, tracer)


# -- end-to-end metrics -------------------------------------------------------


def end_to_end(passes: List[Pass], ref_s: float) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "raw", "n", "unit"}}`` for the workload's ops.

    ``value`` is host-normalized (see :mod:`hostspeed`), ``raw`` is the
    same figure in this host's seconds, ``n`` the sample count.
    """
    ops = [op for p in passes for op in p.ops if not op.failed]
    out: Dict[str, Dict[str, Any]] = {}

    def time_metric(name: str, values: List[float], q: float) -> None:
        if values:
            raw = hostspeed.percentile(values, q)
            out[name] = {"value": hostspeed.normalize(raw, ref_s), "raw": raw,
                         "n": len(values), "unit": "s"}

    busy = sum(op.raw_s for op in ops)
    records = sum(op.records for op in ops)
    if busy > 0 and records:
        out["cells_per_s"] = {
            "value": hostspeed.normalize_rate(records / busy, ref_s),
            "raw": records / busy, "n": records, "unit": "1/s",
        }
    per_cell = [op.raw_s / op.records for op in ops if op.records]
    time_metric("cell_s_p50", per_cell, 50)
    fresh = [op.raw_s for op in ops if op.kind == "fresh"]
    hits = [op.raw_s for op in ops if op.kind == "hit"]
    time_metric("job_s_p50", fresh, 50)
    time_metric("job_s_p90", fresh, 90)
    time_metric("hit_s_p50", hits, 50)
    time_metric("hit_s_p90", hits, 90)
    time_metric("query_s_p50", [op.raw_s for op in ops if op.kind == "query"], 50)
    return out


def per_cell_compile(passes: List[Pass]) -> Dict[str, float]:
    """Mean structural-compile counts per op (cell or job)."""
    ops = [op for p in passes for op in p.ops if op.compile]
    names = {"sim.compile.full": "full_compiles",
             "sim.compile.patched": "patched_compiles",
             "sim.compile.hits": "fingerprint_hits"}
    if not ops:
        return {}
    return {
        metric: sum(op.compile.get(key, 0) for op in ops) / len(ops)
        for metric, key in names.items()
        if any(key in op.compile for op in ops)
    }


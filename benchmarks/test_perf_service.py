"""Fleet-service perf harness: ``service`` section of ``BENCH_perf.json``.

The service's whole pitch is that it adds *coordination*, not *cost*: jobs
flow through an HTTP queue, a spec-hash cache, and a columnar store, and
none of that may tax the underlying campaign machinery noticeably.  Three
loud floors guard that:

- **submit-to-record overhead** — wall time from ``FleetClient.submit`` to
  a streamed terminal record for a one-cell job, minus the direct
  ``run_experiment`` time for the same (warm) cell.  This prices the whole
  control plane: HTTP round-trips, queue hand-off, producer thread, record
  pagination.
- **cache-hit latency** — per-record time to re-stream a fully cached
  campaign.  Cache hits must feel free, or nobody resubmits specs and the
  dedup guarantee stops mattering.
- **store query throughput** — rows/s for a filtered, projected query over
  a compacted store.  Queries scan numpy columns; if this drops toward
  JSONL-parsing speed the columnar layer has silently broken.

Floors are generous for shared CI hardware; the recorded numbers in
``BENCH_perf.json`` track the real trajectory.
"""

from __future__ import annotations

import time

from repro.api import CampaignSpec, ExperimentRecord, ExperimentSpec, run_experiment
from repro.service import FleetClient, FleetServer, ResultStore

from conftest import BENCH_PERF_PATH, update_perf_report


#: Control-plane price of one job: submit -> streamed record, minus compute.
MAX_SUBMIT_OVERHEAD_MS = 500.0
#: Per-record latency when every cell is served from the result cache.
MAX_CACHE_HIT_MS_PER_RECORD = 100.0
#: Filtered + projected query throughput over a compacted store.
MIN_QUERY_ROWS_PER_S = 50_000.0

N_CACHED_CELLS = 8
N_STORE_ROWS = 20_000


def _store_record(seed: int) -> ExperimentRecord:
    """Synthetic record (distinct spec hash per seed): the query bench
    prices the store, not the experiment pipeline."""
    spec = ExperimentSpec(circuit="c17", pth=0.9, seed=seed)
    return ExperimentRecord(
        spec=spec,
        success=seed % 2 == 0,
        benchmark=spec.circuit,
        gates=10,
        detection=None,
        trigger={"pft_analytic": 1e-6},
        error=None,
        runtime={"timings_s": {"total": 0.01}},
    )


def test_service_control_plane_overhead(tmp_path):
    server = FleetServer(port=0, data_dir=tmp_path / "fleet", jobs=1).start()
    try:
        client = FleetClient(server.url, poll_s=0.01)
        client.wait_ready()

        # -- submit-to-record overhead (one warm c17 cell) ---------------
        warm_spec = ExperimentSpec(circuit="c17", pth=0.9, seed=10_000)
        direct_s = None
        for _ in range(3):
            t0 = time.perf_counter()
            run_experiment(warm_spec)
            elapsed = time.perf_counter() - t0
            direct_s = elapsed if direct_s is None else min(direct_s, elapsed)

        overhead_ms = None
        for attempt in range(3):
            spec = ExperimentSpec(circuit="c17", pth=0.9, seed=20_000 + attempt)
            t0 = time.perf_counter()
            job_id = client.submit(spec)
            records = list(client.stream(job_id))
            elapsed = time.perf_counter() - t0
            assert len(records) == 1 and records[0].error is None
            sample = (elapsed - direct_s) * 1e3
            overhead_ms = sample if overhead_ms is None else min(
                overhead_ms, sample
            )

        # -- cache-hit latency -------------------------------------------
        campaign = CampaignSpec.sweep(
            circuits=["c17"],
            pths=[0.9],
            seeds=range(N_CACHED_CELLS),
            name="bench_cache",
        )
        cold_id = client.submit(campaign)
        assert client.wait(cold_id).state == "done"

        cache_hit_ms = None
        for _ in range(3):
            t0 = time.perf_counter()
            warm_id = client.submit(campaign)
            records = list(client.stream(warm_id))
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            assert len(records) == N_CACHED_CELLS
            status = client.status(warm_id)
            assert status.n_cached == N_CACHED_CELLS, "bench premise broken"
            sample = elapsed_ms / N_CACHED_CELLS
            cache_hit_ms = sample if cache_hit_ms is None else min(
                cache_hit_ms, sample
            )
    finally:
        server.close()

    # -- store query throughput ------------------------------------------
    store = ResultStore(tmp_path / "store")
    store.ingest_many([_store_record(seed) for seed in range(N_STORE_ROWS)])
    store.compact()
    rows_per_s = None
    for _ in range(3):
        t0 = time.perf_counter()
        view = store.query(
            columns=["circuit", "pth", "pft_analytic"], success=True
        )
        elapsed = time.perf_counter() - t0
        assert len(view["pth"]) == N_STORE_ROWS // 2
        sample = N_STORE_ROWS / elapsed
        rows_per_s = sample if rows_per_s is None else max(rows_per_s, sample)

    update_perf_report("service", {
        "workload": (
            "in-process FleetServer, 1-cell c17 job; "
            f"{N_CACHED_CELLS}-cell cached resubmit; "
            f"{N_STORE_ROWS}-row store query (best of 3 each)"
        ),
        "submit_to_record_overhead_ms": overhead_ms,
        "cache_hit_ms_per_record": cache_hit_ms,
        "store_query_rows_per_s": rows_per_s,
        "direct_cell_s": direct_s,
    })

    assert overhead_ms < MAX_SUBMIT_OVERHEAD_MS, (
        f"service control plane regressed: submit-to-record overhead "
        f"{overhead_ms:.1f}ms > {MAX_SUBMIT_OVERHEAD_MS}ms (HTTP + queue + "
        f"streaming must stay off the hot path; see {BENCH_PERF_PATH})"
    )
    assert cache_hit_ms < MAX_CACHE_HIT_MS_PER_RECORD, (
        f"cache-hit streaming regressed: {cache_hit_ms:.1f}ms/record > "
        f"{MAX_CACHE_HIT_MS_PER_RECORD}ms (cached resubmits must feel free; "
        f"see {BENCH_PERF_PATH})"
    )
    assert rows_per_s > MIN_QUERY_ROWS_PER_S, (
        f"store query throughput regressed: {rows_per_s:,.0f} rows/s < "
        f"{MIN_QUERY_ROWS_PER_S:,.0f} (queries must stay columnar; "
        f"see {BENCH_PERF_PATH})"
    )

"""Tests for the campaign fleet service (`repro.service`).

Covers the four layers end to end: the spec-hash result cache (soundness,
hit marking, refusal of error records), the columnar store (ingest /
compaction / last-record-wins dedup / query + aggregation), the job-queue
server (submit, stream, status, heartbeats, cancel, graceful shutdown, the
HTTP error envelope), and the typed client — including the headline
acceptance property: resubmitting a campaign computes zero cells, and
service records are payload-bit-identical to direct `run_experiment` runs.

The server under test runs in-process (ephemeral port, `jobs=1`, so cells
execute in the server's threads and test-registered circuits resolve); a
pool-mode submission is exercised separately by the CI service smoke.
"""

import json
import math
import threading
import time

import pytest

from repro.api import (
    CIRCUITS,
    CampaignSpec,
    ExperimentRecord,
    ExperimentSpec,
    run_experiment,
)
from repro.service import (
    FleetClient,
    FleetServer,
    FleetServiceError,
    ResultCache,
    ResultStore,
)
from repro.service.store import EVADES_NO, EVADES_UNKNOWN, EVADES_YES
from tests.test_api import MALFORMED_CAMPAIGNS, MALFORMED_POLICIES


def _spec(pth=0.9, seed=0, circuit="c17", **kw):
    return ExperimentSpec(circuit=circuit, pth=pth, seed=seed, **kw)


def _fake_record(spec, success=True, evades=None, error=None, pft=None):
    """A synthetic record: store/cache tests must not pay pipeline runs."""
    detection = None
    if evades is not None:
        detection = {
            "suite": "paper",
            "evades": evades,
            "trojanzero_rates": {"chen": 0.0 if evades else 1.0},
            "golden_rates": {},
            "additive_rates": {},
        }
    trigger = {"pft_analytic": pft} if pft is not None else None
    return ExperimentRecord(
        spec=spec,
        success=success,
        benchmark=spec.circuit,
        gates=10,
        detection=detection,
        trigger=trigger,
        error=error,
        runtime={"timings_s": {"total": 0.01}},
    )


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit_marks_runtime(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        assert cache.get(spec) is None
        record = _fake_record(spec)
        assert cache.put(record)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.runtime["cache"] == "hit"
        # The deterministic payload is untouched by the hit marker.
        assert hit.payload_dict() == record.payload_dict()
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_error_records_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        assert not cache.put(ExperimentRecord.failed(spec, "boom"))
        assert cache.get(spec) is None

    def test_first_write_wins(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        assert cache.put(_fake_record(spec, pft=1.0))
        assert not cache.put(_fake_record(spec, pft=2.0))
        assert cache.get(spec).trigger["pft_analytic"] == 1.0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.put(_fake_record(spec))
        cache.path_for(cache.key(spec)).write_text("{torn write")
        assert cache.get(spec) is None
        assert cache.stats.corrupt == 1

    def test_key_is_canonical_spec_hash(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.put(_fake_record(spec))
        # A dict round-trip (tuples -> lists, floats re-parsed) still hits.
        same = ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert cache.get(same) is not None

    def test_len_and_iter(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = [_spec(pth=p) for p in (0.9, 0.92, 0.95)]
        for s in specs:
            cache.put(_fake_record(s))
        assert len(cache) == 3
        assert set(cache.iter_hashes()) == {s.spec_hash() for s in specs}


# ---------------------------------------------------------------------------
# Columnar store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_ingest_compact_query(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.ingest(_fake_record(_spec(pth=0.9), evades=False, pft=1e-9))
        store.ingest(_fake_record(_spec(pth=0.95), evades=True, pft=1e-7))
        store.ingest(
            _fake_record(_spec(pth=0.9, circuit="c432"), success=False)
        )
        stats = store.compact()
        assert stats.rows == 3 and stats.ingested == 3 and stats.skipped == 0
        assert len(store) == 3
        hit = store.query(circuit="c17", columns=("pth", "evades"))
        assert sorted(hit["pth"].tolist()) == [0.9, 0.95]
        assert set(hit["evades"].tolist()) == {EVADES_NO, EVADES_YES}
        only_c432 = store.query(circuit="c432")
        assert only_c432["evades"].tolist() == [EVADES_UNKNOWN]
        assert not only_c432["success"][0]

    def test_query_filters(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for pth in (0.9, 0.92, 0.95):
            store.ingest(_fake_record(_spec(pth=pth), pft=pth))
        # Membership and callable filters.
        two = store.query(pth=[0.9, 0.95], columns=("pth",))
        assert sorted(two["pth"].tolist()) == [0.9, 0.95]
        high = store.query(pth=lambda p: p > 0.91, columns=("pth",))
        assert sorted(high["pth"].tolist()) == [0.92, 0.95]

    def test_unknown_column_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.ingest(_fake_record(_spec()))
        with pytest.raises(KeyError, match="unknown column"):
            store.query(columns=("bogus",))
        with pytest.raises(KeyError, match="unknown column"):
            store.column("bogus")

    def test_last_record_wins_dedup(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = _spec()
        store.ingest(_fake_record(spec, error="boom", success=False))
        store.ingest(_fake_record(spec, success=True))
        stats = store.compact()
        assert stats.rows == 1 and stats.superseded == 1
        assert store.query()["has_error"].tolist() == [False]
        # ... across compactions too: a later ingest supersedes stored rows.
        store.ingest(_fake_record(spec, success=False))
        stats = store.compact()
        assert stats.rows == 1 and stats.superseded == 1
        assert store.query()["success"].tolist() == [False]

    def test_auto_compaction_on_query(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.ingest(_fake_record(_spec()))
        assert store.pending_ingest
        assert len(store) == 1  # implicit compact
        assert not store.pending_ingest

    def test_corrupt_ingest_line_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.ingest(_fake_record(_spec()))
        with open(store._ingest_path, "a", encoding="utf-8") as f:
            f.write('{"torn": ')  # crash-truncated tail
        stats = store.compact()
        assert stats.rows == 1 and stats.skipped == 1

    def test_detection_rate_aggregate(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.ingest(_fake_record(_spec(pth=0.9), evades=False))
        store.ingest(_fake_record(_spec(pth=0.92), evades=False))
        store.ingest(_fake_record(_spec(pth=0.95), evades=True))
        store.ingest(
            _fake_record(_spec(circuit="c432", pth=0.9), evades=False)
        )
        store.ingest(_fake_record(_spec(circuit="c432", pth=0.95)))  # no verdict
        rates = store.detection_rate(by="circuit")
        assert rates["c17"] == pytest.approx(2 / 3)
        assert rates["c432"] == 1.0  # the verdict-less cell is excluded
        only_c17 = store.detection_rate(by="circuit", circuit="c17")
        assert set(only_c17) == {"c17"}

    def test_nan_for_missing_floats(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.ingest(_fake_record(_spec()))  # no trigger, no deltas
        row = store.query()
        assert math.isnan(row["pft_analytic"][0])
        assert math.isnan(row["delta_tz_total_uw"][0])

    def test_schema_version_guard(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.ingest(_fake_record(_spec()))
        store.compact()
        manifest = json.loads(store._manifest_path.read_text())
        manifest["version"] = 999
        store._manifest_path.write_text(json.dumps(manifest))
        fresh = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="schema version"):
            len(fresh)

    def test_real_record_round_trip(self, tmp_path):
        # One real pipeline record exercises every extractor against the
        # genuine schema (trigger/power dicts present, detection absent).
        record = run_experiment(_spec())
        store = ResultStore(tmp_path / "store")
        store.ingest(record)
        row = store.query()
        assert row["spec_hash"].tolist() == [record.spec.spec_hash()]
        assert row["circuit"].tolist() == ["c17"]
        assert row["gates"][0] == record.gates


# ---------------------------------------------------------------------------
# Server + client
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = FleetServer(
        port=0, data_dir=tmp_path_factory.mktemp("fleet"), jobs=1
    ).start()
    yield srv
    srv.close()


@pytest.fixture(scope="module")
def client(server):
    c = FleetClient(server.url, poll_s=0.05)
    c.wait_ready(timeout_s=10)
    return c


def _campaign(*pths, seed=0, name="svc"):
    return CampaignSpec.of(
        [_spec(pth=p, seed=seed) for p in pths], name=name
    )


class TestFleetService:
    def test_submit_stream_status(self, client):
        job_id = client.submit(_campaign(0.9, 0.95))
        records = client.poll(job_id, timeout_s=120)
        assert len(records) == 2
        assert {r.spec.pth for r in records} == {0.9, 0.95}
        status = client.status(job_id)
        assert status.state == "done"
        assert status.n_records == status.n_cells == 2
        assert status.n_errors == 0
        assert status.finished_at is not None

    def test_resubmit_hits_cache_zero_recompute(self, client, server):
        campaign = _campaign(0.9, 0.95, seed=1, name="cached")
        first = client.poll(client.submit(campaign), timeout_s=120)
        puts_before = server.cache.stats.puts
        job_id = client.submit(campaign)
        second = client.poll(job_id, timeout_s=120)
        status = client.status(job_id)
        # Zero recomputed cells: every record served from the cache, and
        # nothing new was published to it.
        assert status.n_cached == len(campaign) == len(second)
        assert server.cache.stats.puts == puts_before
        assert all(r.runtime.get("cache") == "hit" for r in second)
        by_id = {r.spec.cell_id(): r for r in first}
        for rec in second:
            assert rec.payload_dict() == by_id[rec.spec.cell_id()].payload_dict()

    def test_service_records_match_direct_run(self, client):
        spec = _spec(pth=0.92, seed=3)
        job_id = client.submit(spec)  # single-spec submit wraps to a campaign
        (record,) = client.poll(job_id, timeout_s=120)
        assert record.payload_dict() == run_experiment(spec).payload_dict()

    def test_records_land_in_store(self, client, server):
        spec = _spec(pth=0.93, seed=4)
        client.poll(client.submit(spec), timeout_s=120)
        row = server.store.query(
            spec_hash=spec.spec_hash(), columns=("circuit", "pth")
        )
        assert row["circuit"].tolist() == ["c17"]
        assert row["pth"].tolist() == [0.93]

    def test_error_cells_become_error_records(self, client):
        spec = ExperimentSpec(circuit="/nonexistent/x.bench", pth=0.9)
        job_id = client.submit(spec)
        (record,) = client.poll(job_id, timeout_s=120)
        assert record.error is not None and "unknown circuit" in record.error
        status = client.status(job_id)
        assert status.state == "done" and status.n_errors == 1

    def test_error_records_not_served_from_cache(self, client):
        spec = ExperimentSpec(circuit="/nonexistent/y.bench", pth=0.9)
        client.poll(client.submit(spec), timeout_s=120)
        job_id = client.submit(spec)
        client.poll(job_id, timeout_s=120)
        assert client.status(job_id).n_cached == 0  # errors re-run

    def test_records_pagination(self, client):
        job_id = client.submit(_campaign(0.9, 0.92, 0.95, seed=5))
        client.wait(job_id, timeout_s=120)
        page1 = client.records(job_id, since=0)
        assert page1.done and page1.next == 3
        page2 = client.records(job_id, since=2)
        assert len(page2.records) == 1 and page2.next == 3
        tail = client.records(job_id, since=3)
        assert tail.records == [] and tail.next == 3

    def test_health_and_jobs_listing(self, client):
        health = client.health()
        assert health["ok"] and health["protocol"] == 1
        assert "hits" in health["cache"]
        listed = client.jobs()
        assert any(j.state == "done" for j in listed)

    def test_unknown_job_404(self, client):
        with pytest.raises(FleetServiceError) as err:
            client.status("job-9999")
        assert err.value.status == 404

    def test_bad_submit_400(self, client):
        with pytest.raises(FleetServiceError) as err:
            client._request("POST", "/jobs", {"nonsense": True})
        assert err.value.status == 400
        with pytest.raises(FleetServiceError) as err:
            client._request(
                "POST", "/jobs", {"campaign": {"name": "x", "experiments": []}}
            )
        assert err.value.status == 400
        bad_seed = {"circuit": "c17", "pth": 0.9, "seed": -1}
        with pytest.raises(FleetServiceError) as err:
            client._request(
                "POST", "/jobs", {"campaign": {"name": "x", "experiments": [bad_seed]}}
            )
        assert err.value.status == 400
        assert "seed must be None or a non-negative int" in str(err.value)

    @pytest.mark.parametrize("body, message", MALFORMED_CAMPAIGNS)
    def test_malformed_campaign_400(self, client, body, message):
        with pytest.raises(FleetServiceError) as err:
            client._request("POST", "/jobs", {"campaign": body})
        assert err.value.status == 400
        assert message in str(err.value)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("jobs", [0, -3, True, "a", 1.5])
    def test_bad_jobs_400(self, client, jobs):
        body = {"campaign": _campaign(0.9).to_dict(), "jobs": jobs}
        with pytest.raises(FleetServiceError) as err:
            client._request("POST", "/jobs", body)
        assert err.value.status == 400
        assert f"jobs must be an int >= 1, got {jobs!r}" in str(err.value)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("policy, message", MALFORMED_POLICIES)
    def test_malformed_policy_400(self, client, policy, message):
        body = {"campaign": _campaign(0.9).to_dict(), "policy": policy}
        with pytest.raises(FleetServiceError) as err:
            client._request("POST", "/jobs", body)
        assert err.value.status == 400
        assert message in str(err.value)
        assert "\n" not in str(err.value)

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(FleetServiceError) as err:
            client._request("GET", "/bogus")
        assert err.value.status == 404

    def test_unreachable_server_raises(self):
        bad = FleetClient("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(FleetServiceError, match="cannot reach"):
            bad.health()

    def test_cancel_running_job_at_cell_boundary(self, client, server):
        name = "_svc_slow_cell"
        if name not in CIRCUITS:
            @CIRCUITS.register(name)
            def _slow():
                time.sleep(0.8)
                from repro.bench import c17

                return c17()

        try:
            cells = [
                ExperimentSpec(circuit=name, pth=0.9, seed=s)
                for s in range(30)
            ]
            job_id = client.submit(CampaignSpec.of(cells, name="slow"))
            # Wait for the job to actually start producing, then cancel.
            deadline = time.monotonic() + 60
            while client.status(job_id).n_records == 0:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            client.cancel(job_id)
            status = client.wait(job_id, timeout_s=120)
            assert status.state == "cancelled"
            assert 0 < status.n_records < len(cells)
            # Already-produced records remain streamable after cancel.
            page = client.records(job_id, since=0)
            assert page.done and len(page.records) == status.n_records
        finally:
            CIRCUITS._entries.pop(name, None)

    def test_heartbeat_ticks_during_long_cell(self, client, server):
        name = "_svc_glacial_cell"
        if name not in CIRCUITS:
            @CIRCUITS.register(name)
            def _glacial():
                time.sleep(3.0)
                from repro.bench import c17

                return c17()

        try:
            spec = ExperimentSpec(circuit=name, pth=0.9, seed=0)
            job_id = client.submit(spec)
            deadline = time.monotonic() + 30
            while client.status(job_id).state == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(2.0)  # deep inside the 3 s cell
            status = client.status(job_id)
            if status.state == "running":
                # The 1 s heartbeat tick must have fired since job start.
                assert status.heartbeat_age_s is not None
                assert status.heartbeat_age_s < 2.0
            client.wait(job_id, timeout_s=120)
        finally:
            CIRCUITS._entries.pop(name, None)


class TestGracefulShutdown:
    def test_close_cancels_queued_jobs_and_compacts(self, tmp_path):
        server = FleetServer(port=0, data_dir=tmp_path, jobs=1).start()
        client = FleetClient(server.url, poll_s=0.05)
        client.wait_ready(timeout_s=10)
        done_id = client.submit(_spec(pth=0.9, seed=9))
        client.wait(done_id, timeout_s=120)
        server.close()
        # Completed work survived shutdown: store compacted, cache populated.
        assert not server.store.pending_ingest
        assert len(server.store) == 1
        # The listener is really down.
        with pytest.raises(FleetServiceError):
            client.health()

    def test_submit_after_close_refused(self, tmp_path):
        server = FleetServer(port=0, data_dir=tmp_path, jobs=1).start()
        server.close()
        with pytest.raises(ValueError, match="shutting down"):
            server.submit({"campaign": _campaign(0.9).to_dict()})

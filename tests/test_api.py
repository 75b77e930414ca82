"""Tests for the declarative experiment API (`repro.api`).

Covers spec/record JSON round-trips, registry resolution, seed determinism,
parallel-vs-serial campaign parity, and JSONL resume bookkeeping.
"""

import json

import pytest

from repro.api import (
    CIRCUITS,
    DETECTORS,
    TROJAN_DESIGNS,
    CampaignRunner,
    CampaignSpec,
    ExperimentRecord,
    ExperimentSpec,
    TABLE1_PARAMETERS,
    canonicalize,
    detect_seed_for,
    execute_experiment,
    load_records,
    resolve_circuit,
    resolve_designs,
    run_campaign,
    run_experiment,
    spec_hash,
)
from repro.core import TableRow
from repro.trojan.library import TrojanDesign


def _one_cell(**fields):
    return {"name": "x", "experiments": [{"circuit": "c17", **fields}]}


#: Campaign bodies that must be refused with a one-line ``ValueError``:
#: (campaign dict, fragment the message must contain).
MALFORMED_CAMPAIGNS = [
    pytest.param({"name": "x"}, "missing keys ['experiments']", id="no-experiments"),
    pytest.param({"experiments": []}, "missing keys ['name']", id="no-name"),
    pytest.param([], "expected an object, got list", id="campaign-list"),
    pytest.param(
        {"name": "x", "experiments": 5}, "experiments must be a list", id="experiments-int"
    ),
    pytest.param({"name": "x", "experiments": [5]}, "expected an object", id="cell-int"),
    pytest.param(
        {"name": "x", "experiments": [{"pth": 0.9}]}, "missing keys ['circuit']",
        id="no-circuit",
    ),
    pytest.param(
        {"name": "x", "experiments": [{"circuit": 3}]}, "circuit must be a str",
        id="circuit-int",
    ),
    pytest.param(_one_cell(design=5), "design must be None or a str", id="design-int"),
    pytest.param(_one_cell(detector=[]), "detector must be None or a str", id="detector-list"),
    pytest.param(_one_cell(pth="high"), "pth must be a number", id="pth-str"),
    pytest.param(_one_cell(pth=True), "pth must be a number", id="pth-bool"),
    pytest.param(_one_cell(mc_sessions=1.5), "mc_sessions must be an int", id="mc-float"),
    pytest.param(_one_cell(mc_sessions="8"), "mc_sessions must be an int", id="mc-str"),
    pytest.param(_one_cell(detector_chips=0), "detector_chips must be", id="chips-zero"),
    pytest.param(_one_cell(additive_gates=-1), "additive_gates must be", id="additive-neg"),
    pytest.param(_one_cell(max_candidates="a"), "max_candidates must be", id="maxcand-str"),
    pytest.param(_one_cell(max_candidates=-2), "max_candidates must be", id="maxcand-neg"),
]


class TestMalformedSpecs:
    @pytest.mark.parametrize("body, message", MALFORMED_CAMPAIGNS)
    def test_rejected_with_one_line_error(self, body, message):
        with pytest.raises(ValueError) as err:
            CampaignSpec.from_dict(body)
        assert message in str(err.value)
        assert "\n" not in str(err.value)

    def test_boundary_values_accepted(self):
        spec = ExperimentSpec(
            circuit="c17", pth=1, mc_sessions=0, detector_chips=1,
            additive_gates=0, max_candidates=0,
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


class TestSpecSerialization:
    def test_spec_round_trip(self):
        spec = ExperimentSpec(
            circuit="c432",
            pth=0.975,
            design="counter2",
            seed=7,
            mc_sessions=16,
            detector="paper",
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_spec_json_is_plain_json(self):
        data = json.loads(ExperimentSpec(circuit="c17", pth=0.9).to_json())
        assert data["circuit"] == "c17"
        assert data["design"] is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            ExperimentSpec.from_dict({"circuit": "c17", "bogus": 1})

    def test_invalid_pth_rejected(self):
        with pytest.raises(ValueError, match="pth"):
            ExperimentSpec(circuit="c17", pth=0.2)

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
    def test_invalid_seed_rejected(self, seed):
        # A float or negative seed would only fail deep inside numpy's
        # SeedSequence; True would run as seed=1 under a different spec hash.
        with pytest.raises(ValueError, match="seed must be None or a non-negative int"):
            ExperimentSpec(circuit="c17", seed=seed)

    def test_valid_seeds_accepted_and_hash_unchanged(self):
        assert ExperimentSpec(circuit="c17", seed=0).seed == 0
        spec = ExperimentSpec(
            circuit="c432", pth=0.975, design="counter2", seed=5, mc_sessions=8
        )
        assert spec.spec_hash() == TestSpecHash.PINNED["c432"]

    def test_cell_id_stable_and_distinct(self):
        a = ExperimentSpec(circuit="c17", pth=0.9)
        assert a.cell_id() == ExperimentSpec(circuit="c17", pth=0.9).cell_id()
        assert a.cell_id() != a.with_(pth=0.95).cell_id()
        assert a.cell_id() != a.with_(seed=1).cell_id()

    def test_campaign_round_trip(self):
        campaign = CampaignSpec.sweep(
            circuits=["c17", "c432"], pths=[0.9, 0.975], seeds=[3]
        )
        assert CampaignSpec.from_json(campaign.to_json()) == campaign

    def test_sweep_expansion_is_circuit_major(self):
        campaign = CampaignSpec.sweep(circuits=["a", "b"], pths=[0.9, 0.95])
        assert len(campaign) == 4
        assert [s.circuit for s in campaign] == ["a", "a", "b", "b"]

    def test_table1_grid(self):
        campaign = CampaignSpec.table1(seed=1)
        assert len(campaign) == 5
        for spec in campaign:
            pth, bits = TABLE1_PARAMETERS[spec.circuit]
            assert spec.pth == pth
            assert spec.design == f"counter{bits}"
            assert spec.seed == 1

    def test_table1_forwards_detector_knobs(self):
        campaign = CampaignSpec.table1(
            detector="paper", detector_chips=11, additive_gates=5
        )
        for spec in campaign:
            assert spec.detector_chips == 11
            assert spec.additive_gates == 5


class TestRegistries:
    def test_all_benchmarks_registered(self):
        for name in ("c17", "c432", "c499", "c880", "c1355", "c1908", "c3540", "c6288"):
            assert name in CIRCUITS

    def test_resolve_circuit_by_name(self):
        assert resolve_circuit("c17").name == "c17"

    def test_resolve_circuit_by_path(self, tmp_path):
        from repro.bench import c17, save_bench

        path = tmp_path / "mine.bench"
        save_bench(c17(), path)
        assert resolve_circuit(str(path)).name == "mine"

    def test_resolve_circuit_unknown(self):
        with pytest.raises(ValueError, match="unknown circuit"):
            resolve_circuit("c9999")

    def test_register_decorator(self):
        @CIRCUITS.register("_test_tmp_circuit")
        def factory():
            from repro.bench import c17

            return c17()

        try:
            assert resolve_circuit("_test_tmp_circuit").name == "c17"
        finally:
            CIRCUITS._entries.pop("_test_tmp_circuit")

    def test_resolve_designs(self):
        assert resolve_designs(None) is None
        (design,) = resolve_designs("counter3")
        assert design == TrojanDesign("counter3", "counter", 3)
        # Parametric fallback beyond the registered library sizes.
        (big,) = resolve_designs("counter7")
        assert big.size == 7 and big.kind == "counter"
        with pytest.raises(ValueError, match="unknown trojan design"):
            resolve_designs("rowhammer")

    def test_default_designs_registered(self):
        assert {"counter2", "counter5", "comb2", "comb4"} <= set(
            TROJAN_DESIGNS.names()
        )

    def test_detector_suites_registered(self):
        assert DETECTORS.names() == ["paper", "structural", "traces"]

    def test_detect_seed_derivation(self):
        assert detect_seed_for(None) == 37  # legacy fixed seed
        assert detect_seed_for(5) == detect_seed_for(5)
        assert detect_seed_for(5) != detect_seed_for(6)


class TestExperimentRecord:
    def test_record_round_trip_c17(self):
        record = run_experiment(ExperimentSpec(circuit="c17", pth=0.9))
        assert record.error is None
        assert record.success is False  # c17 has no salvage budget
        restored = ExperimentRecord.from_json_line(record.to_json_line())
        assert restored.payload_dict() == record.payload_dict()
        assert restored.spec == record.spec

    def test_payload_excludes_runtime(self):
        record = run_experiment(ExperimentSpec(circuit="c17", pth=0.9))
        assert "timings_s" in record.runtime
        assert "runtime" not in record.payload_dict()
        assert "runtime" in record.to_dict()

    def test_record_unknown_keys_rejected(self):
        record = run_experiment(ExperimentSpec(circuit="c17", pth=0.9))
        data = record.to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            ExperimentRecord.from_dict(data)


class TestDeterminismAndReporting:
    @pytest.fixture(scope="class")
    def c432_outcomes(self):
        spec = ExperimentSpec(
            circuit="c432", pth=0.975, design="counter2", seed=5, mc_sessions=8
        )
        return spec, execute_experiment(spec), execute_experiment(spec)

    def test_same_seed_runs_identical(self, c432_outcomes):
        _, first, second = c432_outcomes
        assert first.record.payload_dict() == second.record.payload_dict()

    def test_seed_reaches_monte_carlo(self, c432_outcomes):
        _, first, _ = c432_outcomes
        assert first.record.success
        assert first.record.pft_monte_carlo is not None

    def test_table_row_matches_result_path(self, c432_outcomes):
        _, outcome, _ = c432_outcomes
        assert TableRow.from_record(outcome.record) == TableRow.from_result(
            outcome.result
        )


class TestCampaignRunner:
    @pytest.fixture(scope="class")
    def small_campaign(self):
        return CampaignSpec.of(
            [
                ExperimentSpec(circuit="c17", pth=0.9, seed=3),
                ExperimentSpec(circuit="c17", pth=0.95, seed=3),
                ExperimentSpec(circuit="c432", pth=0.975, design="counter2", seed=3),
            ],
            name="unit",
        )

    def test_parallel_matches_serial(self, small_campaign, tmp_path):
        out = tmp_path / "parallel.jsonl"
        result = run_campaign(small_campaign, jobs=2, out=out)
        assert len(result.records) == len(small_campaign)
        assert not result.errors
        by_id = {r.spec.cell_id(): r for r in load_records(out)}
        for spec in small_campaign:
            serial = run_experiment(spec)
            assert serial.payload_dict() == by_id[spec.cell_id()].payload_dict()

    def test_resume_skips_completed_cells(self, small_campaign, tmp_path):
        out = tmp_path / "resume.jsonl"
        first = run_campaign(small_campaign, jobs=1, out=out)
        assert len(first.records) == 3 and not first.skipped
        again = run_campaign(small_campaign, jobs=1, out=out, resume=True)
        assert len(again.records) == 0
        assert len(again.skipped) == 3
        assert len(load_records(out)) == 3  # nothing re-appended

    def test_resume_runs_only_new_cells(self, small_campaign, tmp_path):
        out = tmp_path / "partial.jsonl"
        run_campaign(small_campaign, jobs=1, out=out)
        extra = CampaignSpec.of(
            list(small_campaign) + [ExperimentSpec(circuit="c17", pth=0.99, seed=3)]
        )
        result = run_campaign(extra, jobs=1, out=out, resume=True)
        assert len(result.records) == 1
        assert result.records[0].spec.pth == 0.99
        assert len(load_records(out)) == 4

    def test_resume_requires_out(self, small_campaign):
        with pytest.raises(ValueError, match="resume"):
            CampaignRunner(small_campaign, resume=True).run()

    def test_bad_cell_becomes_error_record(self, tmp_path):
        campaign = CampaignSpec.of(
            [ExperimentSpec(circuit="/nonexistent/x.bench", pth=0.9)]
        )
        result = run_campaign(campaign)
        (record,) = result.records
        assert record.error is not None and "unknown circuit" in record.error
        assert not record.success
        # Error records serialize like any other.
        restored = ExperimentRecord.from_json_line(record.to_json_line())
        assert restored.error == record.error

    def test_resume_reruns_error_records(self, tmp_path):
        out = tmp_path / "errors.jsonl"
        campaign = CampaignSpec.of(
            [
                ExperimentSpec(circuit="c17", pth=0.9),
                ExperimentSpec(circuit="/nonexistent/x.bench", pth=0.9),
            ]
        )
        first = run_campaign(campaign, jobs=1, out=out)
        assert len(first.errors) == 1
        # An error record is not "done": the failed cell re-runs on resume,
        # the clean cell does not.
        again = run_campaign(campaign, jobs=1, out=out, resume=True)
        assert len(again.skipped) == 1
        assert [r.spec.circuit for r in again.records] == ["/nonexistent/x.bench"]

    def test_resume_after_truncated_line(self, small_campaign, tmp_path):
        # A crash mid-write leaves an unterminated partial line; resume must
        # re-run that cell and keep the appended records parseable.
        out = tmp_path / "truncated.jsonl"
        run_campaign(small_campaign, jobs=1, out=out)
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        result = run_campaign(small_campaign, jobs=1, out=out, resume=True)
        assert len(result.records) == 1  # only the corrupted cell re-ran
        restored = load_records(out, strict=False)
        assert len(restored) == 3
        assert {r.spec.cell_id() for r in restored} == {
            s.cell_id() for s in small_campaign
        }

    def test_load_records_strict(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = run_experiment(ExperimentSpec(circuit="c17", pth=0.9))
        path.write_text(good.to_json_line() + "\n{not json}\n")
        with pytest.raises(ValueError, match="invalid record"):
            load_records(path)
        assert len(load_records(path, strict=False)) == 1


class TestSpecHash:
    """Canonical spec hashing (`repro.api.spec_hash`).

    The pinned digests below are load-bearing: the fleet service's result
    cache, the columnar store, and `--resume` dedup all key on this hash,
    so a silent change to the canonicalization invalidates every cache
    on disk.  If one of these assertions fails, you changed the hash
    contract — bump the cache/store schema versions rather than repinning
    casually.
    """

    PINNED = {
        "c17": "4711e67ac8dcb44831de6acf84cf1124f8016b3c6922aec9ccbb8dd55bcb9c64",
        "c432": "aac15f69d3f459c2f4cecc54d016dd0480d382b66d9b9786350a134241451907",
        "campaign": "b45e34ef18732d7e9a97824c85b84e6198bdbc7a42e50d1a770b2b81b3a73ff5",
    }

    def test_pinned_digests_are_stable(self):
        s1 = ExperimentSpec(circuit="c17", pth=0.9)
        s2 = ExperimentSpec(
            circuit="c432", pth=0.975, design="counter2", seed=5, mc_sessions=8
        )
        assert spec_hash(s1) == self.PINNED["c17"]
        assert spec_hash(s2) == self.PINNED["c432"]
        assert spec_hash(CampaignSpec.of([s1], name="x")) == self.PINNED["campaign"]

    def test_method_matches_module_function(self):
        spec = ExperimentSpec(circuit="c17", pth=0.9)
        assert spec.spec_hash() == spec_hash(spec) == spec_hash(spec.to_dict())

    def test_numeric_normalization(self):
        # Integral floats hash like ints: 8.0 MC sessions is the same
        # experiment as 8, however the spec was deserialized.
        assert spec_hash({"a": 8.0}) == spec_hash({"a": 8})
        assert spec_hash({"a": 8.5}) != spec_hash({"a": 8})

    def test_sequence_normalization(self):
        # Tuples and lists are the same wire value (JSON has only arrays).
        assert spec_hash({"xs": (1, 2)}) == spec_hash({"xs": [1, 2]})
        assert spec_hash({"xs": [1, 2]}) != spec_hash({"xs": [2, 1]})

    def test_bool_stays_distinct_from_int(self):
        # True == 1 in Python; the canonical form must not conflate them.
        assert spec_hash({"flag": True}) != spec_hash({"flag": 1})
        assert canonicalize({"flag": True}) == {"flag": True}

    def test_key_order_is_irrelevant(self):
        assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})

    def test_hash_ignores_nothing_semantic(self):
        base = ExperimentSpec(circuit="c17", pth=0.9)
        assert spec_hash(base) != spec_hash(ExperimentSpec(circuit="c17", pth=0.95))
        assert spec_hash(base) != spec_hash(
            ExperimentSpec(circuit="c17", pth=0.9, seed=1)
        )

    def test_non_dict_rejected(self):
        with pytest.raises(TypeError, match="spec_hash"):
            spec_hash([1, 2, 3])

    def test_resume_dedup_keys_on_hash(self, tmp_path):
        # A record written by an older run whose cell_id formatting differed
        # would still dedup, because resume now keys on the canonical hash.
        spec = ExperimentSpec(circuit="c17", pth=0.9)
        record = run_experiment(spec)
        out = tmp_path / "resume.jsonl"
        out.write_text(record.to_json_line() + "\n")
        result = run_campaign(CampaignSpec.of([spec]), out=out, resume=True)
        assert result.records == []
        assert result.skipped == [spec.cell_id()]


class TestConcurrentAppend:
    """Readers must tolerate a writer that is mid-line (satellite c).

    The campaign JSONL is append-only and written with per-record flushes,
    so the only torn state a concurrent reader can observe is a final
    unterminated partial line.  `strict=False` readers (what `--resume`
    uses) must skip exactly that tail and see every completed record.
    """

    def test_reader_skips_writer_midline_tail(self, tmp_path):
        out = tmp_path / "live.jsonl"
        specs = [ExperimentSpec(circuit="c17", pth=p) for p in (0.9, 0.95)]
        records = [run_experiment(s) for s in specs]
        with open(out, "w") as fh:
            fh.write(records[0].to_json_line() + "\n")
            # Writer crashes / is scheduled out halfway through record 2.
            half = records[1].to_json_line()
            fh.write(half[: len(half) // 2])
            fh.flush()
            seen = load_records(out, strict=False)
            assert [r.spec.cell_id() for r in seen] == [specs[0].cell_id()]
            # Writer resumes and finishes the line: reader now sees both.
            fh.write(half[len(half) // 2 :] + "\n")
            fh.flush()
        seen = load_records(out, strict=False)
        assert [r.spec.cell_id() for r in seen] == [s.cell_id() for s in specs]

    def test_threaded_writer_reader_snapshots_are_consistent(self, tmp_path):
        import threading

        out = tmp_path / "race.jsonl"
        out.touch()
        record = run_experiment(ExperimentSpec(circuit="c17", pth=0.9))
        line = record.to_json_line() + "\n"
        n_writes = 50
        stop = threading.Event()

        def writer():
            with open(out, "a") as fh:
                for _ in range(n_writes):
                    # Two syscalls per record maximizes the window in which
                    # a reader can observe a torn line.
                    fh.write(line[: len(line) // 2])
                    fh.flush()
                    fh.write(line[len(line) // 2 :])
                    fh.flush()
            stop.set()

        counts = []
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    counts.append(len(load_records(out, strict=False)))
                except Exception as exc:  # noqa: BLE001 - fail the test below
                    errors.append(exc)

        t_w = threading.Thread(target=writer)
        t_r = threading.Thread(target=reader)
        t_w.start()
        t_r.start()
        t_w.join()
        t_r.join()
        assert not errors
        # Counts only grow (append-only file) and never exceed the total.
        assert counts == sorted(counts)
        assert all(0 <= c <= n_writes for c in counts)
        assert len(load_records(out, strict=False)) == n_writes

    def test_resume_last_record_wins_with_duplicate_hashes(self, tmp_path):
        # Same cell appears three times (two stale errors, one success,
        # interleaved): only the final record decides.
        spec = ExperimentSpec(circuit="c17", pth=0.9)
        good = run_experiment(spec)
        bad = ExperimentRecord.failed(spec, "WorkerCrash: synthetic")
        out = tmp_path / "dups.jsonl"
        out.write_text(
            bad.to_json_line()
            + "\n"
            + good.to_json_line()
            + "\n"
            + bad.to_json_line()
            + "\n"
        )
        result = run_campaign(CampaignSpec.of([spec]), out=out, resume=True)
        assert [r.spec.cell_id() for r in result.records] == [spec.cell_id()]
        assert result.skipped == []

"""Tests of the benchmark's own machinery: span arithmetic, host
normalization, hook installation, and the payload-digest check."""

import sys
import threading
import types

import pytest

import hostspeed
import layers
import spans
import workloads


def _span(span_id, start, end, parent=None, name="s", trace="t"):
    return spans.Span(span_id, name, start, end, parent, trace)


def test_self_time_subtracts_union_of_children():
    recorded = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps child 1: union is [1, 5]
        _span(3, 6.0, 7.0, parent=0),
        _span(4, 1.5, 2.5, parent=1),  # grandchild: only reduces child 1
        _span(5, 9.5, 12.0, parent=0),  # runs past the parent: clipped
    ]
    selves = spans.self_times(recorded)
    assert selves[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert selves[1] == pytest.approx(2.0 - 1.0)
    assert selves[2] == pytest.approx(3.0)
    assert selves[4] == pytest.approx(1.0)


def test_per_trace_sums_within_each_trace():
    recorded = [
        _span(0, 0.0, 4.0, name="cell", trace="a"),
        _span(1, 1.0, 2.0, parent=0, name="podem", trace="a"),
        _span(2, 2.0, 3.0, parent=0, name="podem", trace="a"),
        _span(3, 0.0, 1.0, name="podem", trace="b"),
    ]
    selves = spans.self_times(recorded)
    assert spans.per_trace(recorded, selves, "podem", False) == {"a": 2.0, "b": 1.0}
    assert spans.per_trace(recorded, selves, "cell", True) == {"a": 2.0}
    assert spans.per_trace_count(recorded, "podem", "calls") == {"a": 2.0, "b": 1.0}


def test_normalization_rescales_to_nominal_host():
    nominal = hostspeed.NOMINAL_REF_S
    # A host twice as slow as nominal halves its seconds and doubles its rates.
    assert hostspeed.normalize(3.0, 2 * nominal) == pytest.approx(1.5)
    assert hostspeed.normalize_rate(10.0, 2 * nominal) == pytest.approx(20.0)
    assert hostspeed.normalize(3.0, nominal) == pytest.approx(3.0)


def test_index_is_time_weighted_mean_of_bursts():
    index = hostspeed.HostIndex()
    with pytest.raises(ValueError):
        index.ref_s
    index.sample(3, 1.0)
    assert index.n_samples == 3
    # A 1 s cell measured at 3 ms and a 3 s cell at 1 ms: the run spent
    # three quarters of its time in the faster regime.
    index._bursts[:] = [(1.0, 0.003), (3.0, 0.001)]
    assert index.take() == pytest.approx(0.0015)
    with pytest.raises(ValueError):
        index.ref_s


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert hostspeed.percentile(values, 50) == 5
    assert hostspeed.percentile(values, 90) == 9
    assert hostspeed.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        hostspeed.percentile([], 50)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    def work(x):
        return x + 1

    def stream(n):
        yield from range(n)

    module.work = work
    module.stream = stream
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_absent_hook_is_reported_absent(fake_module):
    tracer = spans.Tracer()
    installed = spans.Installed(
        tracer,
        [
            spans.Hook(fake_module.__name__, "work", "fake.work"),
            spans.Hook(fake_module.__name__, "deleted_later", "atpg.compact"),
            spans.Hook("perfbench_no_such_module", "f", "atpg.podem"),
        ],
    )
    try:
        assert fake_module.work(1) == 2
    finally:
        installed.remove()
    assert installed.absent_spans == ["atpg.compact", "atpg.podem"]
    assert len(installed.missing) == 2
    assert [s.name for s in tracer.spans] == ["fake.work"]
    metrics = layers.span_metrics(tracer.spans, installed.absent_spans)
    assert "atpg.compact.s" not in metrics
    assert "atpg.podem.calls" not in metrics
    assert "atpg.patterns_kept_ratio" not in metrics
    assert metrics["atpg.faultsim.s"] == 0.0  # installed but idle: measured zero


def test_hooks_restore_and_wrap_generators(fake_module):
    original = fake_module.work
    tracer = spans.Tracer()
    installed = spans.Installed(
        tracer,
        [
            spans.Hook(fake_module.__name__, "stream", "fake.stream"),
            spans.Hook(fake_module.__name__, "work", "fake.work"),
        ],
    )
    tracer.set_trace("cell-1")
    assert [fake_module.work(i) for i in fake_module.stream(3)] == [1, 2, 3]
    installed.remove()
    assert fake_module.work is original
    names = sorted(s.name for s in tracer.spans)
    assert names == ["fake.stream", "fake.work", "fake.work", "fake.work"]
    assert {s.trace_id for s in tracer.spans} == {"cell-1"}


def test_server_thread_spans_carry_job_id():
    tracer = spans.Tracer()
    seen = []

    def produce():
        span = tracer.open("api.cell")
        tracer.close(span)
        seen.append(span.trace_id)

    thread = threading.Thread(target=produce, name="fleet-job-0007")
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert seen == ["job-0007"]


def test_digest_check_catches_one_changed_field():
    payload = {"benchmark": "c432", "power": {"free": {"total_uw": 25.2}},
               "delta_tz": {"total_uw": -0.0376}}
    digest = workloads.payload_digest(payload)
    goldens = {"cell": digest[: workloads.GOLDEN_HEX]}
    assert workloads.golden_mismatches({"cell": digest}, goldens) == []
    payload["power"]["free"]["total_uw"] = 25.3
    changed = workloads.payload_digest(payload)
    assert workloads.golden_mismatches({"cell": changed}, goldens) == ["cell"]
    # A cell the goldens do not cover is not compared.
    assert workloads.golden_mismatches({"other": changed}, goldens) == []

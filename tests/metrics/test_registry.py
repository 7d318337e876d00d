"""Tests for the unified MetricsRegistry and its instruments."""

import json

import pytest

from repro.metrics import Counter, Histogram, MetricsRegistry


def test_counter_labels_and_totals():
    c = Counter("rpc.retrans")
    c.inc(proc="nfs.read", endpoint="m1")
    c.inc(2, proc="nfs.read", endpoint="m1")
    c.inc(proc="nfs.write", endpoint="m1")
    assert c.get(proc="nfs.read", endpoint="m1") == 3
    assert c.get(endpoint="m1", proc="nfs.read") == 3  # order-insensitive
    assert c.get(proc="absent") == 0
    assert c.total() == 4


def test_histogram_buckets_and_stats():
    h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v, proc="read")
    assert h.count(proc="read") == 4
    assert h.mean(proc="read") == pytest.approx(5.555 / 4)
    cell = h.as_dict()["proc=read"]
    assert cell["count"] == 4
    assert cell["min"] == 0.005
    assert cell["max"] == 5.0
    assert cell["buckets"] == [[0.01, 1], [0.1, 1], [1.0, 1], ["inf", 1]]


def test_histogram_empty_labels():
    h = Histogram("lat")
    assert h.count() == 0
    assert h.mean() == 0.0


def test_registry_create_or_fetch():
    reg = MetricsRegistry()
    a = reg.counter("x")
    assert reg.counter("x") is a
    assert reg.names() == ["x"]
    reg.histogram("h")
    assert reg.names() == ["h", "x"]


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_as_dict_is_sorted_and_json_stable():
    reg = MetricsRegistry()
    reg.counter("zeta").inc(b="2", a="1")
    reg.counter("alpha").inc()
    reg.histogram("mid").observe(3.0, k="v")
    d = reg.as_dict()
    assert list(d) == ["alpha", "mid", "zeta"]
    assert d["zeta"]["kind"] == "counter"
    assert d["zeta"]["values"] == {"a=1,b=2": 1}
    assert json.dumps(d, sort_keys=True) == json.dumps(reg.as_dict(), sort_keys=True)


def test_enable_metrics_on_simulator(no_observers):
    from repro.sim import Simulator

    sim = Simulator()
    assert sim.metrics is None
    reg = sim.enable_metrics()
    assert sim.metrics is reg
    assert sim.enable_metrics() is reg  # idempotent


# -- per-instrument bucket overrides ------------------------------------------


def test_histogram_rebuckets_while_empty():
    reg = MetricsRegistry()
    # creation order between readers and writers is arbitrary: a reader
    # fetching with buckets=None must not pin the defaults
    default = reg.histogram("rpc.latency")
    fine = reg.histogram("rpc.latency", buckets=(0.001, 0.01, 0.1))
    assert fine is default
    assert fine.buckets == (0.001, 0.01, 0.1)
    # buckets=None never conflicts, even after the override
    assert reg.histogram("rpc.latency").buckets == (0.001, 0.01, 0.1)


def test_histogram_rebucket_with_data_raises():
    reg = MetricsRegistry()
    h = reg.histogram("rpc.latency", buckets=(0.001, 0.01, 0.1))
    h.observe(0.005, proc="nfs.read")
    with pytest.raises(ValueError):
        reg.histogram("rpc.latency", buckets=(1.0, 2.0))
    # same boundaries (any order) are not a conflict
    assert reg.histogram("rpc.latency", buckets=(0.1, 0.01, 0.001)) is h


def test_as_dict_reports_bucket_bounds():
    reg = MetricsRegistry()
    h = reg.histogram("rpc.latency", buckets=(0.001, 0.01, 0.1))
    h.observe(0.002)
    d = reg.as_dict()
    # self-describing: consumers read the boundaries from the export
    assert d["rpc.latency"]["buckets"] == [0.001, 0.01, 0.1]


def test_rpc_latency_uses_finer_buckets():
    from repro.obs.probe import RPC_LATENCY_BUCKETS

    # sub-millisecond resolution at the low end for LAN-scale RPCs
    assert RPC_LATENCY_BUCKETS[0] < 0.001
    assert list(RPC_LATENCY_BUCKETS) == sorted(RPC_LATENCY_BUCKETS)

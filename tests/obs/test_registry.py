"""Tests for the live metrics registry (counters, gauges, histograms)."""

import math

import pytest

from repro import build_cluster, profiles
from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.topology import TopologyConfig
from repro.obs.buckets import bucket_index, log_bounds
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    render_key,
)
from repro.units import KB, MB


# -- bucket math -----------------------------------------------------------


def test_log_bounds_cover_range_exactly():
    bounds = log_bounds(1e-6, 1.0, 12)
    assert len(bounds) == 12
    assert bounds[-1] == 1.0
    assert bounds == sorted(bounds)
    # log-spaced: successive ratios are constant
    ratios = [b / a for a, b in zip(bounds, bounds[1:-1])]
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-6)


def test_log_bounds_degenerate_and_errors():
    assert log_bounds(0.5, 0.5, 8) == [0.5]
    with pytest.raises(ValueError):
        log_bounds(1e-6, 1.0, 0)
    with pytest.raises(ValueError):
        log_bounds(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        log_bounds(2.0, 1.0, 4)


def test_bucket_index_matches_linear_scan():
    bounds = log_bounds(1e-6, 10.0, 24)
    values = [1e-7, 1e-6, 3.3e-5, 0.001, 0.5, 9.999, 10.0]
    for v in values:
        linear = next((i for i, b in enumerate(bounds) if v <= b),
                      len(bounds) - 1)
        assert bucket_index(bounds, v) == linear


def test_bucket_index_clamps_overflow():
    bounds = log_bounds(1e-3, 1.0, 4)
    assert bucket_index(bounds, 99.0) == len(bounds) - 1


# -- keys ------------------------------------------------------------------


def test_render_key_sorts_labels():
    assert render_key("x", {}) == "x"
    assert (render_key("nic_bytes", {"node": "c0", "link": "rdma"})
            == 'nic_bytes{link="rdma",node="c0"}')


# -- counters / gauges -----------------------------------------------------


def test_counter_accumulates():
    reg = MetricsRegistry()
    c = reg.counter("ops", server="s0")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    assert reg.counter("ops", server="s0") is c  # get-or-create
    assert reg.counter("ops", server="s1") is not c


def test_gauge_set_and_callback():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.set(7)
    assert g.value() == 7
    backing = {"v": 3}
    g2 = reg.gauge("depth2", fn=lambda: backing["v"])
    assert g2.value() == 3
    backing["v"] = 9
    assert g2.value() == 9


def test_gauge_fn_installed_on_reregistration():
    reg = MetricsRegistry()
    g = reg.gauge("occ")
    assert reg.gauge("occ", fn=lambda: 42) is g
    assert g.value() == 42


def test_kind_clash_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


# -- histograms ------------------------------------------------------------


def test_histogram_counts_mean_minmax():
    h = Histogram("lat", {}, lo=1e-6, hi=1.0, buckets=16)
    for v in (1e-5, 1e-4, 1e-4, 0.1):
        h.observe(v)
    assert h.count == 4
    assert h.total == pytest.approx(1e-5 + 2e-4 + 0.1)
    assert h.mean == pytest.approx(h.total / 4)
    assert h.min == pytest.approx(1e-5)
    assert h.max == pytest.approx(0.1)
    assert sum(h.counts) == 4


def test_histogram_overflow_bucket():
    h = Histogram("lat", {}, lo=1e-3, hi=1.0, buckets=4)
    h.observe(50.0)
    assert h.counts[-1] == 1  # overflow slot
    d = h.to_dict()
    assert d["buckets"][-1][0] == math.inf
    assert d["buckets"][-1][1] == 1


def test_histogram_percentiles_are_monotone_and_bounded():
    h = Histogram("lat", {}, lo=1e-6, hi=1.0, buckets=32)
    for i in range(1, 101):
        h.observe(i * 1e-4)
    p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
    assert p50 <= p90 <= p99 <= h.max
    assert p50 == pytest.approx(5e-3, rel=0.35)  # bucket-resolution answer
    assert h.percentile(100) <= h.max
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_empty():
    h = Histogram("lat", {})
    assert h.mean == 0.0
    assert h.percentile(99) == 0.0
    assert h.to_dict()["min"] == 0.0


# -- registry reads --------------------------------------------------------


def test_snapshot_and_flatten_are_sorted_and_typed():
    t = {"now": 0.25}
    reg = MetricsRegistry(clock=lambda: t["now"])
    reg.counter("b_ops", c="z").inc(2)
    reg.counter("a_ops", c="a").inc(1)
    reg.gauge("depth", fn=lambda: 4)
    reg.histogram("lat").observe(1e-4)
    snap = reg.snapshot()
    assert snap["time"] == 0.25
    assert list(snap["counters"]) == ['a_ops{c="a"}', 'b_ops{c="z"}']
    assert snap["gauges"]["depth"] == 4
    assert snap["histograms"]["lat"]["count"] == 1
    flat = reg.flatten()
    assert flat['a_ops{c="a"}'] == 1
    assert flat["depth"] == 4
    assert "lat" not in flat  # histograms are not flattened


def test_snapshot_match_filter():
    reg = MetricsRegistry()
    reg.counter("ops", server="s0").inc()
    reg.counter("ops", server="s1").inc()
    snap = reg.snapshot(match=lambda m: 's0' in m.key)
    assert list(snap["counters"]) == ['ops{server="s0"}']


# -- null registry ---------------------------------------------------------


def test_null_registry_is_inert_and_shared():
    c1 = NULL_REGISTRY.counter("anything", a="b")
    c2 = NULL_REGISTRY.counter("other")
    assert c1 is c2
    c1.inc(100)
    assert c1.value == 0.0
    g = NULL_REGISTRY.gauge("g", fn=lambda: 5)
    assert g.value() == 0.0
    h = NULL_REGISTRY.histogram("h")
    h.observe(1.0)
    assert h.count == 0
    assert NULL_REGISTRY.enabled is False
    assert NULL_REGISTRY.snapshot()["counters"] == {}
    assert NULL_REGISTRY.flatten() == {}


@pytest.mark.parametrize("profile,ssd_mb", [(profiles.H_RDMA_OPT_NONB_I, 3),
                                            (profiles.RDMA_MEM, 0)],
                         ids=["hybrid", "in-memory"])
def test_metrics_off_request_path_calls_no_null_metric(monkeypatch, profile,
                                                       ssd_mb):
    """With the registry off (every unobserved run) the request path
    skips its metric calls instead of paying a NULL counter's ``inc`` or
    a NULL histogram's ``observe``: an SSD-bound SET and GET through a
    flush, a dropped disk slot, an SSD read and a promotion (hybrid), or
    an eviction (in-memory), plus replicated SETs and an ``mget``, over
    RDMA on two servers at R=2."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a NULL metric was called")

    cluster = build_cluster(profile, spec=ClusterSpec(
        topology=TopologyConfig(initial_servers=2), server_mem=4 * MB,
        ssd_limit=ssd_mb * MB, replication=ReplicationConfig(factor=2)))
    client, sim = cluster.clients[0], cluster.sim
    assert not cluster.obs.registry.enabled
    keys = [b"k%d" % i for i in range(400)]

    def app():
        for key in keys:
            yield from client.set(key, 32 * KB)
        for key in keys[230:250]:
            yield from client.get(key)
        yield from client.mget(keys[250:254])

    monkeypatch.setattr(type(NULL_REGISTRY._COUNTER), "inc", forbidden)
    monkeypatch.setattr(type(NULL_REGISTRY._HISTOGRAM), "observe", forbidden)
    sim.run(until=sim.spawn(app()))
    stats = [s.manager.stats for s in cluster.servers]
    if profile.hybrid:
        assert all(st.flushes and st.dropped_items and st.ssd_reads
                   and st.promotions for st in stats)
    else:
        assert all(st.ram_evictions for st in stats)

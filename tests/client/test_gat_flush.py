"""End-to-end gat, flush_all, and TTL interaction tests."""

import pytest

from repro import build_cluster, profiles
from repro.core.topology import TopologyConfig
from repro.units import KB, MB

pytestmark = pytest.mark.protocol


def run_app(cluster, gen_fn):
    sim = cluster.sim
    return sim.run(until=sim.spawn(gen_fn(sim)))


def make(**kw):
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=16 * MB, **kw)
    cluster.backend.default_value_length = 0
    return cluster


def test_gat_extends_ttl():
    cluster = make()
    client = cluster.clients[0]
    out = {}

    def app(sim):
        yield from client.set(b"k", 1 * KB, expiration=sim.now + 0.5)
        r = yield from client.gat(b"k", sim.now + 10.0)
        out["gat"] = r.status
        yield sim.timeout(1.0)  # past the original deadline
        g = yield from client.get(b"k")
        out["get"] = g.status

    run_app(cluster, app)
    assert out["gat"] == "HIT"
    assert out["get"] == "HIT"  # the gat-refreshed TTL kept it alive


def test_gat_miss_does_not_repopulate():
    cluster = make()
    client = cluster.clients[0]

    def app(sim):
        r = yield from client.gat(b"ghost", sim.now + 5.0)
        assert r.status == "MISS"

    run_app(cluster, app)
    # A gat miss is cache maintenance, not a demand read: no backend fill.
    assert cluster.servers[0].manager.lookup(b"ghost") is None


def test_gat_can_shorten_ttl():
    cluster = make()
    client = cluster.clients[0]
    out = {}

    def app(sim):
        yield from client.set(b"k", 1 * KB)  # no expiry
        r = yield from client.gat(b"k", sim.now + 0.1)
        out["gat"] = r.status
        yield sim.timeout(0.5)
        g = yield from client.get(b"k")
        out["get"] = g.status

    run_app(cluster, app)
    assert out["gat"] == "HIT"
    assert out["get"] == "MISS"


def test_touch_then_expire_then_get():
    cluster = make()
    client = cluster.clients[0]
    out = {}

    def app(sim):
        yield from client.set(b"k", 1 * KB)
        yield from client.touch(b"k", sim.now + 0.05)
        yield sim.timeout(0.1)
        g = yield from client.get(b"k")
        out["get"] = g.status

    run_app(cluster, app)
    assert out["get"] == "MISS"


def test_touch_to_past_deadline_reclaims_now():
    cluster = make()
    client = cluster.clients[0]
    out = {}

    def app(sim):
        yield from client.set(b"k", 1 * KB)
        yield sim.timeout(0.01)
        r = yield from client.touch(b"k", sim.now)  # already-past deadline
        out["touch"] = r.status

    run_app(cluster, app)
    assert out["touch"] == "TOUCHED"
    # Regression: the dead item must be reclaimed, not parked in the table.
    assert b"k" not in cluster.servers[0].manager.table


def test_flush_all_now():
    cluster = make()
    client = cluster.clients[0]
    out = {}

    def app(sim):
        yield from client.set(b"a", 1 * KB)
        yield from client.set(b"b", 1 * KB)
        reqs = yield from client.flush_all()
        out["flush"] = [r.status for r in reqs]
        ga = yield from client.get(b"a")
        gb = yield from client.get(b"b")
        out["gets"] = (ga.status, gb.status)

    run_app(cluster, app)
    assert out["flush"] == ["OK"]
    assert out["gets"] == ("MISS", "MISS")


def test_flush_all_delayed():
    cluster = make()
    client = cluster.clients[0]
    out = {}

    def app(sim):
        yield from client.set(b"k", 1 * KB)
        yield from client.flush_all(delay=0.05)
        g1 = yield from client.get(b"k")
        out["before"] = g1.status
        yield sim.timeout(0.1)
        g2 = yield from client.get(b"k")
        out["after"] = g2.status

    run_app(cluster, app)
    assert out["before"] == "HIT"   # the epoch hasn't arrived yet
    assert out["after"] == "MISS"   # ... and now it has


def test_flush_all_fans_out_to_every_server():
    cluster = make(topology=TopologyConfig(initial_servers=3))
    client = cluster.clients[0]
    out = {}

    def app(sim):
        for i in range(12):
            yield from client.set(f"k{i}".encode(), 1 * KB)
        reqs = yield from client.flush_all()
        out["statuses"] = [r.status for r in reqs]
        misses = 0
        for i in range(12):
            g = yield from client.get(f"k{i}".encode())
            misses += g.status == "MISS"
        out["misses"] = misses

    run_app(cluster, app)
    assert out["statuses"] == ["OK", "OK", "OK"]
    assert out["misses"] == 12


def test_set_after_flush_survives():
    cluster = make()
    client = cluster.clients[0]
    out = {}

    def app(sim):
        yield from client.set(b"k", 1 * KB)
        yield from client.flush_all()
        yield from client.set(b"k", 1 * KB)  # re-created after the epoch
        g = yield from client.get(b"k")
        out["get"] = g.status

    run_app(cluster, app)
    assert out["get"] == "HIT"


def test_sweeper_reclaims_expired_chunks_without_access():
    cluster = make()
    client = cluster.clients[0]

    def app(sim):
        for i in range(8):
            yield from client.set(f"k{i}".encode(), 1 * KB,
                                  expiration=sim.now + 0.02)
        yield sim.timeout(1.0)

    run_app(cluster, app)
    mgr = cluster.servers[0].manager
    assert len(mgr.table) == 0  # reclaimed by the sweeper, never touched
    assert mgr.stats.expired_active == 8

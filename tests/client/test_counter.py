"""End-to-end incr/decr/gets through the full client/server path."""

import pytest

from repro import build_cluster, profiles
from repro.core.cluster import ReplicationConfig
from repro.core.topology import TopologyConfig
from repro.units import KB, MB

pytestmark = pytest.mark.protocol


def run_app(cluster, gen_fn):
    sim = cluster.sim
    return sim.run(until=sim.spawn(gen_fn(sim)))


def test_incr_autocreate_and_arithmetic():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=16 * MB)
    client = cluster.clients[0]
    out = {}

    def app(sim):
        r = yield from client.incr(b"c", 5, initial=0)
        out["create"] = (r.status, r.counter_value)
        r = yield from client.incr(b"c", 5)
        out["incr"] = (r.status, r.counter_value)
        r = yield from client.decr(b"c", 2)
        out["decr"] = (r.status, r.counter_value)
        r = yield from client.decr(b"c", 100)
        out["sat"] = (r.status, r.counter_value)

    run_app(cluster, app)
    assert out["create"] == ("STORED", 0)  # auto-create stores the initial
    assert out["incr"] == ("STORED", 5)
    assert out["decr"] == ("STORED", 3)
    assert out["sat"] == ("STORED", 0)  # decr saturates at zero


def test_incr_missing_without_initial():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=16 * MB)
    client = cluster.clients[0]

    def app(sim):
        r = yield from client.incr(b"ghost", 1)
        assert r.status == "NOT_FOUND"
        r = yield from client.decr(b"ghost", 1)
        assert r.status == "NOT_FOUND"

    run_app(cluster, app)


def test_incr_on_opaque_value_not_numeric():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=16 * MB)
    client = cluster.clients[0]

    def app(sim):
        yield from client.set(b"blob", 4 * KB)
        r = yield from client.incr(b"blob", 1)
        assert r.status == "NOT_NUMERIC"

    run_app(cluster, app)


def test_gets_returns_cas_token_for_cas():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=16 * MB)
    client = cluster.clients[0]
    out = {}

    def app(sim):
        yield from client.set(b"k", 1 * KB)
        r = yield from client.gets(b"k")
        out["gets"] = (r.status, r.cas_token)
        c = yield from client.cas(b"k", 1 * KB, r.cas_token)
        out["cas"] = c.status

    run_app(cluster, app)
    assert out["gets"][0] == "HIT"
    assert out["gets"][1] > 0
    assert out["cas"] == "STORED"


def test_counter_replicates_to_all_replicas():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=16 * MB,
                            topology=TopologyConfig(initial_servers=2),
                            replication=ReplicationConfig(factor=2))
    client = cluster.clients[0]

    def app(sim):
        yield from client.incr(b"c", 1, initial=10)
        yield from client.incr(b"c", 7)

    run_app(cluster, app)
    values = []
    for server in cluster.servers:
        item = server.manager.lookup(b"c")
        assert item is not None
        values.append(item.numeric)
    assert values == [17, 17]  # same arithmetic applied on every replica


def test_server_stats_count_counter_ops():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=16 * MB)
    client = cluster.clients[0]

    def app(sim):
        yield from client.incr(b"c", 1, initial=0)
        yield from client.decr(b"c", 1)

    run_app(cluster, app)
    snap = cluster.servers[0].stats_snapshot()
    assert snap["cmd_counter"] == 2

"""Tests for cluster construction and preloading."""

import pytest

from repro import build_cluster, profiles
from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.topology import TopologyConfig
from repro.units import KB, MB


def test_build_counts():
    cluster = build_cluster(profiles.RDMA_MEM,
                            topology=TopologyConfig(initial_servers=3),
                            num_clients=2,
                            server_mem=8 * MB)
    assert len(cluster.servers) == 3
    assert len(cluster.clients) == 2
    # Every client is connected to every server.
    assert all(len(c._conns) == 3 for c in cluster.clients)


def test_hybrid_profile_gets_device():
    cluster = build_cluster(profiles.H_RDMA_DEF, server_mem=8 * MB,
                            ssd_limit=16 * MB)
    assert cluster.servers[0].device is not None
    assert cluster.servers[0].manager.hybrid


def test_inmemory_profile_has_no_device():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=8 * MB)
    assert cluster.servers[0].device is None


def test_profile_gates_client_nonblocking():
    c1 = build_cluster(profiles.H_RDMA_DEF, server_mem=8 * MB)
    assert not c1.clients[0].config.nonblocking_allowed
    c2 = build_cluster(profiles.H_RDMA_OPT_NONB_I, server_mem=8 * MB)
    assert c2.clients[0].config.nonblocking_allowed


def test_profile_sets_server_io_policy_and_ack():
    c = build_cluster(profiles.H_RDMA_OPT_BLOCK, server_mem=8 * MB)
    assert c.servers[0].config.io_policy == "adaptive"
    assert c.servers[0].config.early_ack
    d = build_cluster(profiles.H_RDMA_DEF, server_mem=8 * MB)
    assert d.servers[0].config.io_policy == "direct"
    assert not d.servers[0].config.early_ack


def test_clients_share_nodes_when_fewer_nodes():
    cluster = build_cluster(profiles.RDMA_MEM, num_clients=4, client_nodes=2,
                            server_mem=8 * MB)
    # 2 client nodes exist (plus 1 server node).
    names = set(cluster.fabric.nodes)
    assert {"cnode0", "cnode1", "snode0"} == names


def test_spec_and_overrides_mutually_exclusive():
    with pytest.raises(TypeError):
        build_cluster(profiles.RDMA_MEM, spec=ClusterSpec(),
                      topology=TopologyConfig(initial_servers=2))


def test_preload_routes_like_clients():
    cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                            topology=TopologyConfig(initial_servers=2),
                            server_mem=8 * MB, ssd_limit=16 * MB)
    pairs = [(f"key{i}".encode(), 4 * KB) for i in range(100)]
    assert cluster.preload(pairs) == 100
    assert cluster.total_items == 100
    # Every preloaded key must be retrievable through the client.
    client = cluster.clients[0]
    sim = cluster.sim

    def app(sim):
        for key, _ in pairs[:20]:
            r = yield from client.get(key)
            assert r.status == "HIT"

    sim.run(until=sim.spawn(app(sim)))


def test_reset_metrics_clears_all_clients():
    cluster = build_cluster(profiles.RDMA_MEM, num_clients=2,
                            server_mem=8 * MB)
    sim = cluster.sim

    def app(sim, client):
        yield from client.set(b"k", 1 * KB)

    for c in cluster.clients:
        sim.spawn(app(sim, c))
    sim.run()
    assert cluster.all_records()
    cluster.reset_metrics()
    assert not cluster.all_records()


def test_reset_metrics_clears_server_counters_too():
    """Regression: reset_metrics used to reset only the clients, so
    back-to-back runs on one cluster double-counted server stats."""
    cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I, server_mem=8 * MB,
                            ssd_limit=16 * MB)
    sim, client = cluster.sim, cluster.clients[0]

    def app(sim):
        yield from client.set(b"k", 1 * KB)
        yield from client.get(b"k")

    sim.run(until=sim.spawn(app(sim)))
    server = cluster.servers[0]
    assert server.stats.sets == 1
    assert server.manager.stats.stores == 1
    cluster.reset_metrics()
    assert server.stats.sets == 0
    assert server.stats.gets == 0
    assert server.manager.stats.stores == 0
    assert server.device.stats.writes == 0
    # The cache itself is untouched: only run-scoped counters reset.
    assert len(server.manager.table) == 1


def test_reset_metrics_registry_flag():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=8 * MB,
                            observe=True)
    sim, client = cluster.sim, cluster.clients[0]

    def app(sim):
        yield from client.set(b"k", 1 * KB)

    sim.run(until=sim.spawn(app(sim)))
    counters = cluster.obs.snapshot()["counters"]
    assert any(v > 0 for v in counters.values())
    cluster.reset_metrics()  # default: registry totals survive
    assert cluster.obs.snapshot()["counters"] == counters
    cluster.reset_metrics(registry=True)
    assert all(v == 0 for v in
               cluster.obs.snapshot()["counters"].values())


def test_preload_replicates():
    cluster = build_cluster(
        profiles.RDMA_MEM,
        topology=TopologyConfig(initial_servers=3),
        server_mem=8 * MB,
        replication=ReplicationConfig(factor=2, router="ketama"))
    pairs = [(f"key{i}".encode(), 1 * KB) for i in range(50)]
    assert cluster.preload(pairs) == 50
    assert cluster.total_items == 100  # two copies of every key

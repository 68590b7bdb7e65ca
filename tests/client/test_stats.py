"""Tests for the stats wire command."""

from repro import build_cluster, profiles
from repro.core.topology import TopologyConfig
from repro.units import KB, MB


def run_app(cluster, gen_fn):
    sim = cluster.sim
    return sim.run(until=sim.spawn(gen_fn(sim)))


def test_stats_reflect_operations():
    cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I, server_mem=16 * MB,
                            ssd_limit=64 * MB)
    client = cluster.clients[0]
    out = {}

    def app(sim):
        for i in range(10):
            yield from client.set(f"k{i}".encode(), 4 * KB)
        yield from client.get(b"k0")
        yield from client.get(b"absent")
        out["stats"] = yield from client.stats()

    run_app(cluster, app)
    s = out["stats"]
    # The repopulation set after the miss also counts server-side.
    assert s["cmd_set"] >= 10
    assert s["cmd_get"] == 2
    assert s["get_hits"] == 1
    assert s["get_misses"] == 1
    assert s["curr_items"] >= 10
    assert "device_reads" in s  # hybrid server exposes device counters


def test_stats_on_inmemory_server_has_no_device_counters():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=16 * MB)
    client = cluster.clients[0]
    out = {}

    def app(sim):
        yield from client.set(b"x", 1 * KB)
        out["stats"] = yield from client.stats()

    run_app(cluster, app)
    assert "device_reads" not in out["stats"]
    assert out["stats"]["items_ssd"] == 0


def test_stats_takes_simulated_time_and_is_not_recorded():
    cluster = build_cluster(profiles.RDMA_MEM, server_mem=16 * MB)
    client = cluster.clients[0]

    def app(sim):
        t0 = sim.now
        yield from client.stats()
        assert sim.now > t0  # a real round trip happened

    run_app(cluster, app)
    assert client.records == []  # stats is not a data operation


def test_stats_per_server():
    cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                            topology=TopologyConfig(initial_servers=2),
                            server_mem=16 * MB, ssd_limit=64 * MB)
    client = cluster.clients[0]
    out = {}

    def app(sim):
        # Write enough keys that both servers hold some.
        for i in range(16):
            yield from client.set(f"key{i}".encode(), 2 * KB)
        out[0] = yield from client.stats(0)
        out[1] = yield from client.stats(1)

    run_app(cluster, app)
    assert out[0]["curr_items"] + out[1]["curr_items"] == 16
    assert out[0]["curr_items"] > 0 and out[1]["curr_items"] > 0

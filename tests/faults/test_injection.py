"""Injection mechanics: each fault kind mutates and restores the cluster."""

import pytest

from repro import build_cluster, profiles
from repro.faults import FaultPlan
from repro.server.protocol import HIT, MISS, SERVER_DOWN
from repro.units import KB, MB, MS, US


def run_app(cluster, gen_fn):
    sim = cluster.sim
    p = sim.spawn(gen_fn(sim))
    return sim.run(until=p)


def small_cluster(profile, **kw):
    kw.setdefault("server_mem", 32 * MB)
    kw.setdefault("ssd_limit", 64 * MB)
    return build_cluster(profile, **kw)


class TestSsdSlowdown:
    def test_device_degraded_then_restored(self):
        cluster = small_cluster(profiles.H_RDMA_DEF)
        device = cluster.servers[0].device
        base = device.params
        plan = FaultPlan.parse(
            ["ssd:server=0,at=100us,duration=1ms,factor=10"])
        cluster.inject_faults(plan)
        sim = cluster.sim
        sim.run(until=sim.timeout(500 * US))
        assert device.params.read_latency == \
            pytest.approx(base.read_latency * 10)
        assert device.params.read_bandwidth == \
            pytest.approx(base.read_bandwidth / 10)
        sim.run(until=sim.timeout(2 * MS))
        assert device.params == base

    def test_noop_on_inmemory_design(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        plan = FaultPlan.parse(["ssd:server=0,at=0,duration=1ms"])
        cluster.inject_faults(plan)
        sim = cluster.sim
        sim.run(until=sim.timeout(2 * MS))  # must not raise


class TestLinkDegrade:
    def test_nics_degraded_then_restored(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        node = cluster.server_node(0)
        nics = list(node._nics.values())
        assert nics, "server node should own at least one NIC"
        base = [nic.params for nic in nics]
        plan = FaultPlan.parse(
            ["link:server=0,at=100us,duration=1ms,factor=5"])
        cluster.inject_faults(plan)
        sim = cluster.sim
        sim.run(until=sim.timeout(500 * US))
        for nic, params in zip(nics, base):
            assert nic.params.latency == pytest.approx(params.latency * 5)
            assert nic.params.name == params.name
        sim.run(until=sim.timeout(2 * MS))
        for nic, params in zip(nics, base):
            assert nic.params == params

    def test_degraded_link_slows_ops(self):
        def span_with(faults):
            cluster = small_cluster(profiles.RDMA_MEM)
            if faults:
                cluster.inject_faults(FaultPlan.parse(faults))
            client = cluster.clients[0]

            def app(sim):
                for i in range(20):
                    yield from client.set(b"k%d" % i, 32 * KB)

            run_app(cluster, app)
            return cluster.sim.now

        healthy = span_with(None)
        degraded = span_with(["link:server=0,at=0,factor=10"])
        # Only the server side of each round trip slows down (the
        # client's NIC is untouched), so expect well over 1.5x.
        assert degraded > healthy * 1.5


class TestPartition:
    def test_partition_heal_roundtrip(self):
        cluster = small_cluster(profiles.RDMA_MEM, request_timeout=1 * MS,
                                failure_threshold=0)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]
        server = cluster.servers[0]

        def app(sim):
            yield from client.set(b"key", 4 * KB)
            server.partition()
            g = yield from client.get(b"key")
            # All retries black-holed: failed fast, fell back to the DB.
            assert g.status == SERVER_DOWN
            assert g.miss_penalty > 0
            server.heal()
            g2 = yield from client.get(b"key")
            assert g2.status == HIT  # state survived the partition

        run_app(cluster, app)

    def test_fault_counter_registered(self):
        cluster = small_cluster(profiles.RDMA_MEM, observe=True)
        cluster.inject_faults(
            FaultPlan.parse(["partition:server=0,at=100us,duration=1ms"]))
        sim = cluster.sim
        sim.run(until=sim.timeout(2 * MS))
        counters = cluster.obs.snapshot()["counters"]
        assert counters['faults_injected{kind="partition",server="0"}'] == 1


class TestCrashRestart:
    def test_crash_then_restart_keeps_memory(self):
        cluster = small_cluster(profiles.RDMA_MEM, request_timeout=1 * MS,
                                failure_threshold=0)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]
        server = cluster.servers[0]

        def app(sim):
            yield from client.set(b"key", 4 * KB)
            server.crash()
            assert not server.alive
            g = yield from client.get(b"key")
            assert g.status == SERVER_DOWN
            server.restart(wipe=False)
            assert server.alive
            g2 = yield from client.get(b"key")
            assert g2.status == HIT  # process restart: DRAM intact

        run_app(cluster, app)

    def test_crash_then_restart_wiped(self):
        cluster = small_cluster(profiles.RDMA_MEM, request_timeout=1 * MS,
                                failure_threshold=0)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]
        server = cluster.servers[0]

        def app(sim):
            yield from client.set(b"key", 4 * KB)
            server.crash()
            yield from client.get(b"key")
            server.restart(wipe=True)
            g = yield from client.get(b"key")
            # Node loss: contents gone, so the read misses and the
            # client repopulates from the backend.
            assert g.status == MISS
            g2 = yield from client.get(b"key")
            assert g2.status == HIT

        run_app(cluster, app)

    def test_timed_crash_restart_via_plan(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        server = cluster.servers[0]
        cluster.inject_faults(FaultPlan.parse(
            ["crash:server=0,at=100us,duration=1ms,wipe=false"]))
        sim = cluster.sim
        sim.run(until=sim.timeout(500 * US))
        assert not server.alive
        sim.run(until=sim.timeout(2 * MS))
        assert server.alive
        assert server.crashes == 1
        assert server.restarts == 1

    def test_plan_rejects_bad_server_index(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        with pytest.raises(ValueError, match="targets server 7"):
            cluster.inject_faults(FaultPlan.parse(["crash:server=7"]))

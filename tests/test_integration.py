"""Cross-layer integration and failure-injection tests."""

import pytest

from repro import build_cluster, profiles
from repro.core import metrics
from repro.core.cluster import ClusterSpec
from repro.core.topology import TopologyConfig
from repro.storage.params import PageCacheParams
from repro.units import KB, MB, MS


def run_app(cluster, gen_fn):
    sim = cluster.sim
    return sim.run(until=sim.spawn(gen_fn(sim)))


class TestSSDExhaustion:
    """When the SSD budget runs out, the oldest slab slot is dropped;
    its keys become misses the client resolves through the backend."""

    def make(self):
        cluster = build_cluster(
            profiles.H_RDMA_OPT_NONB_I,
            server_mem=4 * MB, ssd_limit=8 * MB,  # tiny on purpose
            pagecache=PageCacheParams(size_bytes=4 * MB))
        cluster.backend.default_value_length = 30 * KB
        return cluster

    def test_drops_surface_as_misses_then_repopulate(self):
        cluster = self.make()
        client = cluster.clients[0]
        outcome = {}

        def app(sim):
            # Write 24 MB into 4 MB RAM + 8 MB SSD: drops guaranteed.
            reqs = []
            for i in range(800):
                reqs.append((yield from client.iset(
                    f"k{i}".encode(), 30 * KB)))
            yield from client.wait_all(reqs)
            srv = cluster.servers[0]
            outcome["drops"] = srv.manager.stats.disk_drops
            outcome["dropped_items"] = srv.manager.stats.dropped_items
            # Read an early (dropped) key: miss -> backend -> repopulate.
            g = yield from client.get(b"k0")
            outcome["first"] = g.status, g.miss_penalty
            g2 = yield from client.get(b"k0")
            outcome["second"] = g2.status

        run_app(cluster, app)
        assert outcome["drops"] > 0
        assert outcome["dropped_items"] > 0
        status, penalty = outcome["first"]
        assert status == "MISS" and penalty == pytest.approx(2 * MS)
        assert outcome["second"] == "HIT"

    def test_ssd_usage_stays_bounded(self):
        cluster = self.make()
        client = cluster.clients[0]

        def app(sim):
            reqs = []
            for i in range(800):
                reqs.append((yield from client.iset(
                    f"k{i}".encode(), 30 * KB)))
            yield from client.wait_all(reqs)

        run_app(cluster, app)
        mgr = cluster.servers[0].manager
        assert mgr.live_slot_count <= mgr.total_slots == 8


class TestMixedApiStress:
    """Blocking, non-blocking, batched, and conditional ops interleaved
    across clients and servers must leave a consistent system."""

    def test_mixed_clients_consistent_end_state(self):
        cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                                topology=TopologyConfig(initial_servers=2),
                                num_clients=3,
                                server_mem=16 * MB, ssd_limit=64 * MB)
        c0, c1, c2 = cluster.clients
        sim = cluster.sim

        def blocking_writer(sim):
            for i in range(40):
                yield from c0.set(f"blk{i}".encode(), 8 * KB)

        def nonblocking_writer(sim):
            reqs = []
            for i in range(40):
                reqs.append((yield from c1.iset(f"nb{i}".encode(), 8 * KB)))
                if i % 2:
                    yield from c1.bget(f"nb{i - 1}".encode())
            yield from c1.wait_all(reqs)
            yield from c1.quiesce()

        def mixed_reader(sim):
            yield sim.timeout(0.01)
            yield from c2.mget([f"blk{i}".encode() for i in range(20)])
            yield from c2.add(b"only-once", 2 * KB)
            yield from c2.add(b"only-once", 2 * KB)

        done = sim.all_of([sim.spawn(blocking_writer(sim)),
                           sim.spawn(nonblocking_writer(sim)),
                           sim.spawn(mixed_reader(sim))])
        sim.run(until=done)

        total = sum(len(s.manager.table) for s in cluster.servers)
        assert total == 81  # 40 + 40 + "only-once"
        for c in cluster.clients:
            assert c.outstanding_count == 0
        # Record bookkeeping is sane.
        recs = cluster.all_records()
        assert all(r.t_complete >= r.t_issue for r in recs)
        assert all(r.blocked_time >= 0 for r in recs)

    def test_stage_timings_attributed_everywhere(self):
        cluster = build_cluster(profiles.H_RDMA_OPT_BLOCK, ClusterSpec(
            server_mem=8 * MB, ssd_limit=32 * MB,
            profile=True, profile_keep_traces=True))
        client = cluster.clients[0]

        def app(sim):
            for i in range(120):
                yield from client.set(f"k{i}".encode(), 30 * KB)
            for i in range(40):
                yield from client.get(f"k{i}".encode())

        run_app(cluster, app)
        bd = metrics.stage_breakdown(cluster.all_records(),
                                     cluster.obs.profiler.traces)
        # Spill happened, so both SSD-bearing stages must be non-zero.
        assert bd["slab_alloc"] > 0
        assert bd["cache_check_load"] > 0
        assert bd["server_response"] > 0
        assert bd["client_wait"] > 0


class TestExpiration:
    def test_expired_items_miss_end_to_end(self):
        cluster = build_cluster(profiles.RDMA_MEM, server_mem=8 * MB)
        cluster.backend.default_value_length = 0
        client = cluster.clients[0]
        out = {}

        def app(sim):
            yield from client.set(b"ttl", 1 * KB, expiration=sim.now + 0.5)
            g1 = yield from client.get(b"ttl")
            yield sim.timeout(1.0)
            g2 = yield from client.get(b"ttl")
            out["before"], out["after"] = g1.status, g2.status

        run_app(cluster, app)
        assert out["before"] == "HIT"
        assert out["after"] == "MISS"


class TestNicContention:
    def test_shared_node_slower_than_dedicated(self):
        def run(client_nodes):
            cluster = build_cluster(profiles.RDMA_MEM, num_clients=4,
                                    client_nodes=client_nodes,
                                    server_mem=32 * MB)
            sim = cluster.sim

            def writer(sim, c):
                for i in range(30):
                    yield from c.set(f"{c.name}:{i}".encode(), 256 * KB)

            done = sim.all_of([sim.spawn(writer(sim, c))
                               for c in cluster.clients])
            sim.run(until=done)
            return sim.now

        t_shared = run(client_nodes=1)   # 4 clients on one NIC
        t_dedicated = run(client_nodes=4)
        assert t_shared > 1.5 * t_dedicated

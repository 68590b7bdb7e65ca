"""Replication acceptance: crash 1 of 4 servers with replica copies.

The ISSUE's tentpole scenario: with ``replication_factor=2`` and
synchronous writes, the crash-1-of-4 outage is survivable — reads fail
over to the ring-successor replica and keep *hitting*, sustaining at
least 90% of the steady-state GET hit rate through the outage window,
where the R=1 run collapses to backend misses. Replay must stay
byte-identical for the same seed + plan.
"""

import pytest

from repro import build_cluster, profiles
from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.faults import FaultPlan
from repro.harness.runner import RunConfig
from repro.server.protocol import HIT
from repro.units import KB, MB, MS, US
from repro.workloads.generator import WorkloadSpec

CRASH_AT = 200 * US
PLAN_SPECS = ["crash:server=1,at=200us"]


def repl_config(replication=2, write_mode="sync", faults=PLAN_SPECS,
                observe=False, seed=5, num_ops=300):
    # Uniform keys: every post-crash read of a lost key is a cold miss
    # at R=1 (zipf would mask the outage by repopulating the hot head).
    spec = WorkloadSpec(num_ops=num_ops, num_keys=512, value_length=8 * KB,
                        read_fraction=0.5, distribution="uniform", seed=seed)
    cluster_spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=4),
        num_clients=2, server_mem=16 * MB,
        ssd_limit=64 * MB,
        replication=ReplicationConfig(factor=replication,
                                      write_mode=write_mode,
                                      router="ketama"),
        request_timeout=2 * MS, retry_backoff=200 * US,
        failure_threshold=2, observe=observe)
    plan = FaultPlan.parse(faults) if faults else None
    return RunConfig(profile=H_RDMA_OPT_NONB_I, workload=spec,
                     cluster=cluster_spec, fault_plan=plan)


def outage_get_hit_rate(result, since=CRASH_AT):
    """GET hit rate over the outage window (ops issued after the crash)."""
    gets = [r for r in result.records
            if r.op == "get" and r.t_issue >= since]
    assert gets, "no GETs issued during the outage window"
    return sum(1 for r in gets if r.status == HIT) / len(gets)


def fingerprint(result):
    return [(r.op, r.key_length, r.status, r.t_issue, r.t_complete,
             r.blocked_time, r.miss_penalty)
            for r in result.records]


def counter_total(cluster, name):
    counters = cluster.obs.snapshot()["counters"]
    return sum(v for k, v in counters.items() if k.startswith(name + "{"))


class TestCrashOneOfFourReplicated:
    """The acceptance criterion, head on."""

    def test_r2_sync_sustains_hit_rate_r1_collapses(self):
        steady = repl_config(replication=2, faults=None).run()
        cfg2 = repl_config(replication=2)
        cluster2 = cfg2.build()
        r2 = cfg2.run(cluster=cluster2)
        r1 = repl_config(replication=1).run()

        # Nothing hung: every op of every client resolved.
        assert len(r2.records) == len(steady.records) == len(r1.records)
        for client in cluster2.clients:
            assert client.outstanding_count == 0

        steady_rate = outage_get_hit_rate(steady)
        replicated = outage_get_hit_rate(r2)
        single = outage_get_hit_rate(r1)
        # With a replica, failover reads land on a server that holds the
        # data: >= 90% of the steady-state hit rate survives the outage.
        assert replicated >= 0.9 * steady_rate
        # Without one, the rerouted reads start cold and the hit rate
        # collapses below that bound (the PR-2 behaviour this PR fixes).
        assert single < 0.9 * steady_rate
        assert replicated > single

    def test_replica_reads_and_propagations_counted(self):
        cfg = repl_config(replication=2, observe=True)
        cluster = cfg.build()
        cfg.run(cluster=cluster)
        # Writes fanned out to the second replica...
        assert counter_total(cluster, "replica_propagations") > 0
        # ...and post-crash reads were served by replicas.
        assert counter_total(cluster, "client_replica_reads") > 0
        assert counter_total(cluster, "client_failovers") > 0

    def test_same_seed_and_plan_replays_identically(self):
        a = repl_config(replication=2).run()
        b = repl_config(replication=2).run()
        assert fingerprint(a) == fingerprint(b)
        assert a.span == b.span

    def test_async_mode_also_survives_and_drains(self):
        cfg = repl_config(replication=2, write_mode="async")
        cluster = cfg.build()
        result = cfg.run(cluster=cluster)
        assert len(result.records) == 2 * 300
        for client in cluster.clients:
            assert client.outstanding_count == 0
        # Background propagation still replicated enough for failover
        # reads to keep hitting through the outage.
        steady = repl_config(replication=2, faults=None).run()
        assert (outage_get_hit_rate(result)
                >= 0.9 * outage_get_hit_rate(steady))


class TestResync:
    """Anti-entropy catch-up when a replica rejoins."""

    def small_replicated(self, observe=False):
        cluster = build_cluster(
            profiles.H_RDMA_OPT_NONB_I,
            topology=TopologyConfig(initial_servers=4),
            num_clients=1,
            server_mem=16 * MB, ssd_limit=64 * MB,
            replication=ReplicationConfig(factor=2, router="ketama"),
            request_timeout=2 * MS, failure_threshold=2,
            observe=observe)
        pairs = [(f"key{i}".encode(), 4 * KB) for i in range(64)]
        cluster.preload(pairs)
        return cluster, pairs

    def test_wipe_restart_recovers_from_live_replicas(self):
        cluster, _ = self.small_replicated(observe=True)
        before = len(cluster.servers[1].manager.table)
        assert before > 0  # it held replicas of some keys
        cluster.servers[1].crash()
        copied = cluster.restart_server(1, wipe=True)
        assert copied == before
        assert len(cluster.servers[1].manager.table) == before
        assert counter_total(cluster, "resync_items") == copied

    def test_resync_copies_only_owned_keys(self):
        cluster, pairs = self.small_replicated()
        router = cluster._client_router()
        cluster.servers[1].crash()
        cluster.restart_server(1, wipe=True)
        table = cluster.servers[1].manager.table
        for key, _ in pairs:
            assert (key in table) == (1 in router.replicas_for(key, 2))

    def test_resync_noop_at_r1(self):
        cluster = build_cluster(
            profiles.RDMA_MEM,
            topology=TopologyConfig(initial_servers=2),
            server_mem=8 * MB,
            replication=ReplicationConfig(router="ketama"))
        cluster.preload([(b"a", 1 * KB), (b"b", 1 * KB)])
        assert cluster.resync_server(0) == 0

    def test_resync_noop_while_target_down(self):
        cluster, _ = self.small_replicated()
        cluster.servers[1].crash()
        assert cluster.resync_server(1) == 0  # still dead: nothing to do

    def test_recovered_replica_serves_reads(self):
        cluster, pairs = self.small_replicated()
        client = cluster.clients[0]
        sim = cluster.sim
        cluster.servers[1].crash()
        cluster.restart_server(1, wipe=True)

        def app(sim):
            for key, _ in pairs:
                r = yield from client.get(key)
                assert r.status == HIT

        sim.run(until=sim.spawn(app(sim)))


class TestMgetAcrossCrash:
    """Batched reads spanning a crashed-then-ejected server."""

    def test_mget_spanning_crashed_server_still_hits(self):
        cluster = build_cluster(
            profiles.H_RDMA_OPT_NONB_I,
            topology=TopologyConfig(initial_servers=4),
            num_clients=1,
            server_mem=16 * MB, ssd_limit=64 * MB,
            replication=ReplicationConfig(factor=2, router="ketama"),
            request_timeout=1 * MS, failure_threshold=1)
        client = cluster.clients[0]
        sim = cluster.sim
        keys = [f"key{i}".encode() for i in range(32)]

        def app(sim):
            for k in keys:
                yield from client.set(k, 2 * KB)
            cluster.servers[1].crash()
            # The first batch eats the detection timeouts, ejects the
            # dead server, and fails its reads over to the replicas.
            reqs = yield from client.mget(keys)
            assert all(r.status == HIT for r in reqs)
            assert all(r.server_index != 1 for r in reqs)
            # Once ejected, batches route around the corpse directly.
            t0 = sim.now
            reqs = yield from client.mget(keys)
            assert all(r.status == HIT for r in reqs)
            assert sim.now - t0 < 1 * MS  # no timeout cycles paid

        sim.run(until=sim.spawn(app(sim)))
        assert not client._conns[1].healthy


class TestSpecValidation:
    def test_replication_factor_bounds(self):
        with pytest.raises(ValueError):
            build_cluster(profiles.RDMA_MEM,
                          topology=TopologyConfig(initial_servers=2),
                          replication=ReplicationConfig(factor=3))
        with pytest.raises(ValueError):
            ReplicationConfig(factor=0)

    def test_write_mode_validated(self):
        with pytest.raises(ValueError):
            ReplicationConfig(factor=2, write_mode="eventual")

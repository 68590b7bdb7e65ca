"""Online shard migration: ClusterAdmin add/remove/rebalance under a
live simulator, data placement after cutover, the handoff-window
counters, and the autoscaler loop.

These tests drive the transfer engine directly (no workload harness):
preload a keyspace, mutate the topology, run the simulator until the
migration settles, then check every key sits where the *new* view
routes it.
"""

import pytest

from repro.core.cluster import ClusterSpec, ReplicationConfig, build_cluster
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import AutoscalePolicy, TopologyConfig
from repro.units import MB

KEYS = [b"key:%03d" % i for i in range(60)]


def make_cluster(n, *, router="ketama", observe=True,
                 autoscale=None, replication=1, **topo_kw):
    spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=n, autoscale=autoscale,
                                **topo_kw),
        num_clients=1, server_mem=16 * MB, ssd_limit=64 * MB,
        replication=ReplicationConfig(factor=replication, router=router),
        observe=observe)
    return build_cluster(H_RDMA_OPT_NONB_I, spec=spec)


def owner_of(cluster, key):
    return cluster._client_router().server_for(
        key, cluster.topology_alive())


def settle(cluster, max_steps=2000):
    sim = cluster.sim
    for _ in range(max_steps):
        if cluster.migration is None:
            return
        sim.run(until=sim.timeout(1e-3))
    raise AssertionError("migration did not settle")


def counter_total(cluster, name):
    return int(sum(c.value for c in cluster.obs.registry.counters(
        lambda m: m.name == name)))


def assert_placement(cluster, keys):
    for key in keys:
        owner = owner_of(cluster, key)
        assert key in cluster.servers[owner].manager.table, \
            f"{key!r} missing from its owner server{owner}"


class TestAddServer:
    @pytest.mark.parametrize("router", ["ketama", "modulo"])
    def test_add_migrates_items_to_new_owner(self, router):
        cluster = make_cluster(2, router=router)
        cluster.preload([(k, 512) for k in KEYS])
        cluster.admin.add_server()
        settle(cluster)
        assert len(cluster.servers) == 3
        assert cluster.view_epoch == 1
        assert cluster.serving_indices() == [0, 1, 2]
        assert_placement(cluster, KEYS)
        assert counter_total(cluster, "migration_items") > 0
        # The new server actually owns (and holds) part of the keyspace.
        assert len(cluster.servers[2].manager.table) > 0

    def test_ownership_gauge_sums_to_one(self):
        cluster = make_cluster(2)
        cluster.admin.add_server()
        settle(cluster)
        shares = [cluster.ownership_share(i)
                  for i in range(len(cluster.servers))]
        assert sum(shares) == pytest.approx(1.0)
        assert all(s > 0 for s in shares)


class TestRemoveServer:
    def test_remove_with_drain_keeps_every_key(self):
        cluster = make_cluster(3)
        cluster.preload([(k, 512) for k in KEYS])
        held_before = sum(len(s.manager.table) for s in cluster.servers)
        cluster.admin.remove_server(2)
        settle(cluster)
        assert cluster.serving_indices() == [0, 1]
        assert cluster.view_epoch == 1
        assert_placement(cluster, KEYS)
        # The drained donor dropped everything it no longer owns.
        assert len(cluster.servers[2].manager.table) == 0
        held_after = sum(len(s.manager.table) for s in cluster.servers)
        assert held_after == held_before

    def test_remove_by_name_and_bad_targets(self):
        cluster = make_cluster(3)
        cluster.admin.remove_server("server2")
        settle(cluster)
        assert cluster.serving_indices() == [0, 1]
        with pytest.raises(ValueError):
            cluster.admin.remove_server(2)  # already removed
        with pytest.raises(ValueError):
            cluster.admin.remove_server("serverX")
        with pytest.raises(ValueError):
            cluster.admin.remove_server(17)

    def test_cannot_remove_last_server(self):
        cluster = make_cluster(2)
        cluster.admin.remove_server(1)
        settle(cluster)
        with pytest.raises(ValueError):
            cluster.admin.remove_server(0)

    def test_remove_without_drain_drops_the_shard(self):
        cluster = make_cluster(2)
        cluster.preload([(k, 512) for k in KEYS])
        moved = [k for k in KEYS if owner_of(cluster, k) == 1]
        assert moved  # the test needs server1 to own something
        cluster.admin.remove_server(1, drain=False)
        settle(cluster)
        # No copy ran: the removed shard's items are simply gone
        # (misses repopulate from the backend, as documented).
        for key in moved:
            owner = owner_of(cluster, key)
            assert key not in cluster.servers[owner].manager.table

    def test_readd_reincludes_and_wipes_the_excluded_server(self):
        cluster = make_cluster(2)
        cluster.preload([(k, 512) for k in KEYS])
        cluster.admin.remove_server(1)
        settle(cluster)
        cluster.admin.add_server()
        settle(cluster)
        # Re-include, not append: the ring never grew.
        assert len(cluster.servers) == 2
        assert cluster.serving_indices() == [0, 1]
        assert cluster.view_epoch == 2
        assert_placement(cluster, KEYS)


class TestDoubleRead:
    def test_pull_on_miss_serves_during_slow_copy(self):
        # Crawl the copy (1 item / 2ms) so reads hit the window.
        cluster = make_cluster(2, migration_batch=1,
                               migration_interval=2e-3)
        cluster.preload([(k, 512) for k in KEYS])
        sim = cluster.sim
        client = cluster.clients[0]
        statuses = []

        def reader():
            yield sim.timeout(1e-3)  # let the view publish reach us
            for key in KEYS:
                req = yield from client.get(key)
                statuses.append(req.status)

        sim.spawn(reader(), name="reader")
        cluster.admin.add_server()
        sim.run(until=sim.timeout(50e-3))
        assert statuses and all(s == "HIT" for s in statuses)
        assert counter_total(cluster, "double_reads") > 0
        settle(cluster)
        assert_placement(cluster, KEYS)


class TestRebalance:
    def test_rebalance_repairs_misplaced_items(self):
        cluster = make_cluster(3)
        cluster.preload([(k, 512) for k in KEYS])
        # Misplace by hand: shove every key onto server0.
        for key in KEYS:
            cluster.servers[0].manager.preload(key, 512)
        cluster.admin.rebalance()
        settle(cluster)
        assert_placement(cluster, KEYS)
        for key in KEYS:
            owner = owner_of(cluster, key)
            if owner != 0:
                assert key not in cluster.servers[0].manager.table


class TestGuards:
    def test_elastic_requires_replication_factor_one(self):
        cluster = make_cluster(3, replication=2)
        with pytest.raises(ValueError):
            cluster.admin.add_server()
        with pytest.raises(ValueError):
            cluster.admin.remove_server(2)

    def test_one_migration_at_a_time(self):
        cluster = make_cluster(2)
        cluster.admin.add_server()
        with pytest.raises(RuntimeError):
            cluster.admin.add_server()
        settle(cluster)
        cluster.admin.add_server()  # fine once settled
        settle(cluster)


class TestViewEpochRespected:
    """Regression (bugfix sweep): preload and resync must route by the
    *current* view, never the founding topology."""

    def test_preload_skips_excluded_servers(self):
        cluster = make_cluster(3)
        cluster.admin.remove_server(2)
        settle(cluster)
        cluster.preload([(k, 512) for k in KEYS])
        assert len(cluster.servers[2].manager.table) == 0
        assert_placement(cluster, KEYS)

    def test_resync_of_excluded_server_is_a_no_op(self):
        cluster = make_cluster(3)
        cluster.preload([(k, 512) for k in KEYS])
        cluster.admin.remove_server(2)
        settle(cluster)
        assert cluster.resync_server(2) == 0
        assert len(cluster.servers[2].manager.table) == 0


class TestAutoscaler:
    def test_grows_to_max_when_above_watermark(self):
        # high_watermark 0.0 <= any sampled depth: every eligible tick
        # grows the fleet until max_servers.
        policy = AutoscalePolicy(high_watermark=0.0, low_watermark=-1.0,
                                 min_servers=2, max_servers=4,
                                 interval=1e-3, cooldown=2e-3)
        cluster = make_cluster(2, autoscale=policy)
        sim = cluster.sim
        sim.run(until=sim.timeout(80e-3))
        settle(cluster)
        assert len(cluster.serving_indices()) == 4
        assert cluster.view_epoch >= 2

    def test_shrinks_to_min_when_idle(self):
        policy = AutoscalePolicy(high_watermark=1e9, low_watermark=1e9,
                                 min_servers=2, max_servers=4,
                                 interval=1e-3, cooldown=2e-3)
        cluster = make_cluster(4, autoscale=policy)
        sim = cluster.sim
        sim.run(until=sim.timeout(80e-3))
        settle(cluster)
        assert len(cluster.serving_indices()) == 2

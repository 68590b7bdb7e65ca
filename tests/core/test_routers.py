"""Router invariants under degraded membership views.

The replication design leans on one property: for any alive set the
membership machinery can produce (ejection, committed views, epoch
bumps on partition-heal), the first entry of ``replicas_for`` IS the
``server_for`` primary. Reads that fail over walk the same preference
order writes fanned out on, on both distribution strategies.

A client routes through its cluster's shared, memoized routers; the
last class checks that it still sends every key where a fresh router
over the same view does, after the ring grows and with servers out.
"""

import itertools

import pytest

from repro.client.hashing import make_router
from repro.core.cluster import ClusterSpec, ReplicationConfig, build_cluster
from repro.core.profiles import RDMA_MEM
from repro.core.topology import TopologyConfig
from repro.units import MB

KEYS = [b"key:%010d" % i for i in range(128)]
KEYSPACE = [b"user:%08d" % i for i in range(2000)]


@pytest.mark.parametrize("name", ["modulo", "ketama"])
class TestPrimaryReplicaAgreement:
    def test_full_membership(self, name):
        router = make_router(name, 4)
        for key in KEYS:
            assert router.replicas_for(key, 2)[0] == router.server_for(key)

    def test_every_alive_subset(self, name):
        router = make_router(name, 4)
        for size in (1, 2, 3):
            for alive in itertools.combinations(range(4), size):
                alive = set(alive)
                n = min(2, len(alive))
                for key in KEYS[:32]:
                    assert (router.replicas_for(key, n, alive)[0]
                            == router.server_for(key, alive))

    def test_replicas_are_distinct_and_alive(self, name):
        router = make_router(name, 5)
        alive = {0, 2, 4}
        for key in KEYS[:32]:
            replicas = router.replicas_for(key, 3, alive)
            assert len(set(replicas)) == len(replicas) == 3
            assert set(replicas) <= alive


@pytest.mark.parametrize("name", ["modulo", "ketama"])
class TestClientRoutingAfterTheRingGrows:
    """``apply_view`` grows the ring from 4 to 5 after the client routed
    the whole keyspace on 4 (so every memo is warm); then every key must
    go where a fresh 5-slot router sends it, under each live set."""

    def grown(self, name, factor=1):
        cluster = build_cluster(RDMA_MEM, spec=ClusterSpec(
            topology=TopologyConfig(initial_servers=4), num_clients=1,
            server_mem=8 * MB,
            replication=ReplicationConfig(factor=factor, router=name)))
        client = cluster.clients[0]
        client._ensure_started()
        ring4 = make_router(name, 4)
        for key in KEYSPACE:
            assert client._route(key).index == ring4.server_for(key)
        cluster._spawn_server(4)  # wired ahead of the view: not routable
        assert client._route(KEYSPACE[0]).index == \
            ring4.server_for(KEYSPACE[0])
        client.apply_view(1, range(5), ring_size=5)
        return client

    @staticmethod
    def eject(client, index):
        conn = client._conns[index]
        conn.healthy = False
        client._had_ejections = True

    def test_full_view(self, name):
        client = self.grown(name)
        ring5 = make_router(name, 5)
        assert [client._route(k).index for k in KEYSPACE] == \
            [ring5.server_for(k) for k in KEYSPACE]

    def test_ejected_and_excluded_servers(self, name):
        client = self.grown(name)
        ring5 = make_router(name, 5)
        self.eject(client, 2)
        alive = {0, 1, 3, 4}
        assert [client._route(k).index for k in KEYSPACE] == \
            [ring5.server_for(k, alive) for k in KEYSPACE]
        client.apply_view(2, (0, 1, 2, 3), ring_size=5)  # 4 excluded
        alive = {0, 1, 3}
        assert [client._route(k).index for k in KEYSPACE] == \
            [ring5.server_for(k, alive) for k in KEYSPACE]

    def test_replica_sets(self, name):
        client = self.grown(name, factor=2)
        ring5 = make_router(name, 5)

        def replicas(key):
            return [c.index for c in client._replica_conns(key)]

        assert [replicas(k) for k in KEYSPACE] == \
            [list(ring5.replicas_for(k, 2)) for k in KEYSPACE]
        self.eject(client, 1)
        alive = {0, 2, 3, 4}
        assert [replicas(k) for k in KEYSPACE] == \
            [list(ring5.replicas_for(k, 2, alive)) for k in KEYSPACE]

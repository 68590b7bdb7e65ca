"""Raft membership group: elections, fencing, views, ring epochs.

Everything here drives the group through the public cluster surface —
``build_cluster`` with ``ReplicationConfig(consensus=True)`` — so the
control-plane mesh, liveness piggybacking on the data servers, and the
client publication bus are all exercised, not just the state machine.
Raft tickers never terminate, so every ``sim.run`` is bounded.
"""

from repro.consensus import FOLLOWER, LEADER
from repro.core.cluster import ReplicationConfig, build_cluster
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.units import MB, MS


def consensus_cluster(observe=False, raft_seed=0, num_servers=3,
                      factor=2):
    return build_cluster(
        H_RDMA_OPT_NONB_I,
        topology=TopologyConfig(initial_servers=num_servers),
        num_clients=2,
        server_mem=16 * MB, ssd_limit=64 * MB,
        request_timeout=1 * MS, failure_threshold=1, observe=observe,
        replication=ReplicationConfig(factor=factor, write_mode="sync",
                                      router="ketama", consensus=True,
                                      raft_seed=raft_seed))


def settle(cluster, ms=10):
    cluster.sim.run(until=cluster.sim.timeout(ms * MS))


class TestElection:
    def test_initial_election_produces_a_leader_and_a_view(self):
        cluster = consensus_cluster()
        settle(cluster)
        raft = cluster.raft
        assert raft.leader_index is not None
        assert raft.elections() >= 1
        view = raft.view
        assert view.epoch >= 1
        assert view.alive == frozenset(range(3))
        # Committed views reached the clients over the publication bus.
        for client in cluster.clients:
            assert client.view_epoch == view.epoch

    def test_crash_the_leader_forces_a_fenced_reelection(self):
        cluster = consensus_cluster()
        settle(cluster)
        raft = cluster.raft
        old_leader = raft.leader_index
        old_term = raft.nodes[old_leader].term
        elections_before = raft.elections()
        epoch_before = raft.view.epoch

        cluster.servers[old_leader].crash()
        settle(cluster, ms=15)

        new_leader = raft.leader_index
        assert new_leader is not None and new_leader != old_leader
        assert raft.elections() > elections_before
        # Term fencing: the new leader won a strictly higher term.
        assert raft.nodes[new_leader].term > old_term
        # The committed view excludes the corpse, with a bumped epoch.
        view = raft.view
        assert view.epoch > epoch_before
        assert old_leader not in view.alive
        # ...and the clients route from that committed knowledge.
        for client in cluster.clients:
            assert client.view_epoch == view.epoch
            assert old_leader in (client._view_excludes or frozenset())

    def test_rejoined_old_leader_steps_down_and_is_readmitted(self):
        cluster = consensus_cluster()
        settle(cluster)
        raft = cluster.raft
        old_leader = raft.leader_index
        cluster.servers[old_leader].crash()
        settle(cluster, ms=15)
        epoch_degraded = raft.view.epoch

        cluster.restart_server(old_leader)
        settle(cluster, ms=15)

        # The healed node adopted the higher term and follows.
        node = raft.nodes[old_leader]
        assert node.role == FOLLOWER
        assert node.term == raft.nodes[raft.leader_index].term
        # Membership converged back to everyone, through a fresh epoch.
        view = raft.view
        assert view.epoch > epoch_degraded
        assert view.alive == frozenset(range(3))
        for client in cluster.clients:
            assert client._view_excludes is None

    def test_single_leader_per_term(self):
        cluster = consensus_cluster()
        settle(cluster)
        raft = cluster.raft
        cluster.servers[raft.leader_index].crash()
        settle(cluster, ms=15)
        leaders = [n for n in raft.nodes if n.role == LEADER and n.live()]
        assert len(leaders) == 1

    def test_same_seed_replays_identically(self):
        def trace(raft_seed):
            cluster = consensus_cluster(raft_seed=raft_seed)
            settle(cluster)
            raft = cluster.raft
            first = raft.leader_index
            cluster.servers[first].crash()
            settle(cluster, ms=15)
            return (first, raft.leader_index, raft.elections(),
                    raft.view.epoch, raft.view.alive,
                    [n.term for n in raft.nodes])

        assert trace(3) == trace(3)


class TestObservability:
    def test_election_and_view_metrics_exported(self):
        cluster = consensus_cluster(observe=True)
        settle(cluster)
        cluster.servers[cluster.raft.leader_index].crash()
        settle(cluster, ms=15)

        snap = cluster.obs.snapshot()
        elections = sum(v for k, v in snap["counters"].items()
                        if k.startswith("raft_elections{"))
        assert elections == cluster.raft.elections() >= 2
        terms = [v for k, v in snap["gauges"].items()
                 if k.startswith("raft_term{")]
        assert terms and max(terms) >= 2
        assert snap["gauges"]["raft_view_epoch"] == \
            float(cluster.raft.view.epoch)
        client_epochs = [v for k, v in snap["gauges"].items()
                        if k.startswith("client_view_epoch{")]
        assert client_epochs == [float(cluster.raft.view.epoch)] * 2


class TestRingEpochRouting:
    """Satellite regression: a ring-epoch bump on partition-heal must
    keep the primary-replica invariant — ``replicas_for(key, n)[0] ==
    server_for(key)`` under the view's alive set — on both routers."""

    def check_invariant(self, cluster, n=2):
        router = cluster._client_router()
        alive = set(cluster.raft.view.alive)
        for i in range(64):
            key = b"key:%010d" % i
            assert (router.replicas_for(key, n, alive)[0]
                    == router.server_for(key, alive))

    def run_partition_heal(self, router_name):
        cluster = build_cluster(
            H_RDMA_OPT_NONB_I,
            topology=TopologyConfig(initial_servers=4),
            num_clients=1,
            server_mem=16 * MB, ssd_limit=64 * MB,
            request_timeout=1 * MS, failure_threshold=1,
            replication=ReplicationConfig(factor=2, router=router_name,
                                          consensus=True))
        settle(cluster)
        raft = cluster.raft
        victim = (raft.leader_index + 1) % 4  # a follower
        self.check_invariant(cluster)

        cluster.servers[victim].partition()
        settle(cluster, ms=15)
        degraded = raft.view
        assert victim not in degraded.alive
        self.check_invariant(cluster)

        cluster.servers[victim].heal()
        cluster.resync_server(victim)
        settle(cluster, ms=15)
        healed = raft.view
        assert healed.epoch > degraded.epoch  # the heal bumped the epoch
        assert healed.alive == frozenset(range(4))
        self.check_invariant(cluster)

    def test_modulo(self):
        self.run_partition_heal("modulo")

    def test_ketama(self):
        self.run_partition_heal("ketama")

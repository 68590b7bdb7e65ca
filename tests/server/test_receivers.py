"""A connection is a receiver on each endpoint, not a relay process.

``MemcachedServer.attach`` and the client's one-sided connections
install a callable the frame's ``deliver`` runs at the instant of
arrival. These cases pin that the fault paths behave as they did when a
pump process sat there: a frame for a dead or unreachable server is
dropped and counted, ``crash()`` tears the worker pool down although the
parked workers now run *inside* it, and a connection added to a running
cluster is served without anything being spawned for it. An endpoint
that has a receiver never allocates the inbox it would not read.
"""

import pytest

from repro.core.cluster import ClusterSpec, ReplicationConfig, build_cluster
from repro.core.profiles import H_RDMA_OPT_NONB_I, IPOIB_MEM, RDMA_MEM
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig
from repro.server.protocol import HIT, STORED, GetRequest
from repro.units import KB, MB, US
from repro.workloads.generator import WorkloadSpec


def make_cluster(profile=RDMA_MEM, servers=1):
    return build_cluster(profile, spec=ClusterSpec(
        topology=TopologyConfig(initial_servers=servers), num_clients=1,
        server_mem=16 * MB, ssd_limit=64 * MB, observe=True,
        replication=ReplicationConfig(factor=1, router="ketama")))


def dropped(cluster):
    return int(sum(c.value for c in cluster.obs.registry.counters(
        lambda m: m.name == "server_rx_dropped")))


@pytest.mark.parametrize("profile", [RDMA_MEM, IPOIB_MEM],
                         ids=["rdma", "ipoib"])
@pytest.mark.parametrize("fault", ["crash", "partition"])
def test_frame_for_a_down_server_is_dropped_and_counted(
        profile, fault):
    cluster = make_cluster(profile)
    sim, server = cluster.sim, cluster.servers[0]
    ep = cluster.clients[0]._conns[0].endpoint
    getattr(server, fault)()
    for req_id in (1, 2, 3):
        header = GetRequest(req_id=req_id, op="get", key=b"k")
        ep.send(header, header.header_bytes)
    sim.run()
    # Each frame vanished at the receiver: counted, never queued, no CPU
    # charged, nothing sent back.
    assert dropped(cluster) == 3
    assert server.queue_depth() == 0
    assert server.stats.busy_time == 0.0 and server.stats.gets == 0
    # Nothing came back, so nothing made the client endpoint allocate
    # an inbox either.
    assert ep._inbox is None


def test_endpoints_with_a_receiver_never_allocate_an_inbox():
    cfg = RunConfig(profile=RDMA_MEM,
                    workload=WorkloadSpec(num_ops=60, num_keys=200,
                                          value_length=1 * KB,
                                          read_fraction=0.7),
                    cluster=ClusterSpec(
                        topology=TopologyConfig(initial_servers=4),
                        num_clients=8, server_mem=16 * MB))
    cluster = cfg.build()
    result = cfg.run(cluster=cluster)
    assert result.ops == 8 * 60
    clients = [conn.endpoint for c in cluster.clients for conn in c._conns]
    endpoints = clients + [ep.peer for ep in clients]
    assert len(endpoints) == 2 * 4 * 8
    assert all(ep.receiver is not None for ep in endpoints)
    assert [ep for ep in endpoints if ep._inbox is not None] == []
    # recv() is what allocates one, for a consumer that loops on it.
    ep = endpoints[0]
    ep.recv()
    assert ep._inbox is not None


def test_crash_tears_the_worker_pool_down_inside_the_call(spawned):
    cluster = make_cluster()
    sim, server, client = cluster.sim, cluster.servers[0], cluster.clients[0]
    sim.run()  # every worker parked on the empty queue
    workers = [p for p in spawned if "-worker" in p.name]
    assert len(workers) == server.config.worker_threads
    assert all(p.is_alive for p in workers)
    before = sim.events_processed
    server.crash()
    # The poison pills resumed the parked workers inside crash(): the
    # pool is gone when it returns, no pill is left for a later pool and
    # the loop has nothing to do.
    assert not any(p.is_alive for p in workers)
    assert server.queue_depth() == 0
    sim.run()
    assert sim.events_processed == before
    # A restarted server serves again with a fresh pool.
    server.restart()
    out = []

    def app():
        out.append((yield from client.set(b"k", 1 * KB)).status)
        out.append((yield from client.get(b"k")).status)

    sim.run(until=sim.spawn(app()))
    assert out == [STORED, HIT]
    fresh = [p for p in spawned if "-worker" in p.name and p.is_alive]
    assert len(fresh) == server.config.worker_threads
    assert not set(fresh) & set(workers)


def test_connection_added_mid_run_gets_its_receiver_without_a_spawn(spawned):
    cluster = make_cluster(H_RDMA_OPT_NONB_I, servers=2)
    sim, client = cluster.sim, cluster.clients[0]
    keys = [b"key:%03d" % i for i in range(40)]
    cluster.preload([(k, 512) for k in keys])

    def read_all(out):
        for k in keys:
            out.append((yield from client.get(k)).status)

    sim.run(until=sim.spawn(read_all([])))  # the client is up and running
    known = len(spawned)
    cluster.admin.add_server()
    # Wiring the new connection installed a receiver on each endpoint;
    # the processes created are the new server's workers and the
    # migration, none of them for the connection.
    conn = client._conns[2]
    assert conn.endpoint.receiver is not None
    assert conn.endpoint.peer.receiver is not None
    names = [p.name for p in spawned[known:]]
    assert names and not [n for n in names if "rx" in n or "pump" in n]
    sim.run(until=sim.timeout(2000 * US))
    assert cluster.migration is None and cluster.view_epoch == 1
    # The new server owns keys now and answers over that connection.
    out = []
    sim.run(until=sim.spawn(read_all(out)))
    assert out == [HIT] * len(keys)
    assert cluster.servers[2].stats.gets > 0
    assert not [p.name for p in spawned if "rx" in p.name or "pump" in p.name]

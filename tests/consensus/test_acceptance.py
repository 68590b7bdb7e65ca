"""Acceptance: crash the leader under sustained YCSB load.

The ISSUE's headline scenario — with consensus-owned membership, a
leader crash during a YCSB workload-A stream must produce a real,
observable election (``raft_elections`` moves, the view-epoch gauge
bumps, clients re-route from the committed view) while the run stays
green under the linearizability checker in sync mode.
"""

from repro.consistency import HistoryRecorder, check_history
from repro.core.cluster import ReplicationConfig, build_cluster
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.units import KB, MB, MS
from repro.workloads import CORE_WORKLOADS, generate_ycsb_ops

NUM_KEYS = 32
VALUE = 4 * KB


def test_crash_the_leader_under_load_stays_green():
    cluster = build_cluster(
        H_RDMA_OPT_NONB_I,
        topology=TopologyConfig(initial_servers=3),
        num_clients=2,
        server_mem=16 * MB, ssd_limit=64 * MB,
        request_timeout=1 * MS, failure_threshold=1, observe=True,
        replication=ReplicationConfig(factor=2, write_mode="sync",
                                      router="ketama", consensus=True))
    sim = cluster.sim
    streams = [generate_ycsb_ops(CORE_WORKLOADS["A"], num_ops=150,
                                 num_keys=NUM_KEYS, value_length=VALUE,
                                 seed=11, client_index=i)
               for i in range(2)]
    keys = {op.key for stream in streams for op in stream}
    cluster.preload([(k, VALUE) for k in sorted(keys)])

    # Let the group elect before load starts, so the assassin knows
    # which server is the leader.
    sim.run(until=sim.timeout(8 * MS))
    raft = cluster.raft
    leader = raft.leader_index
    assert leader is not None
    elections_before = raft.elections()
    epoch_before = raft.view.epoch

    recorder = HistoryRecorder().attach(cluster)

    def drive(client, stream):
        for op in stream:
            if op.kind == "get":
                yield from client.get(op.key)
            else:
                yield from client.set(op.key, op.value_length)

    def assassin():
        yield sim.timeout(1 * MS)
        cluster.servers[leader].crash()

    drivers = [sim.spawn(drive(c, stream), name=f"load{i}")
               for i, (c, stream) in enumerate(zip(cluster.clients,
                                                   streams))]
    sim.spawn(assassin(), name="assassin")
    sim.run(until=sim.all_of(drivers))
    # The stream can drain inside the election timeout; give the group
    # a bounded beat to finish the re-election it is already running.
    sim.run(until=sim.timeout(10 * MS))

    # The crash produced an observable, fenced election...
    assert raft.elections() > elections_before
    new_leader = raft.leader_index
    assert new_leader is not None and new_leader != leader
    assert raft.view.epoch > epoch_before
    assert leader not in raft.view.alive
    snap = cluster.obs.snapshot()
    elections_metric = sum(v for k, v in snap["counters"].items()
                           if k.startswith("raft_elections{"))
    assert elections_metric == raft.elections()
    assert snap["gauges"]["raft_view_epoch"] == float(raft.view.epoch)
    for client in cluster.clients:
        assert client.view_epoch == raft.view.epoch

    # ...and every client drained with a linearizable history.
    for client in cluster.clients:
        assert client.outstanding_count == 0
    events = recorder.finish()
    recorder.detach()
    report = check_history(events, recorder.initial_tokens,
                           write_mode="sync", full=True)
    assert report.mode == "linearizable"
    assert report.ok, report.summary()
    assert report.ops_checked == len(events) > 0

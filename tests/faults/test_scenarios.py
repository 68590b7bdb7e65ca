"""The ISSUE's acceptance scenario: crash 1 of 4 servers mid-run.

The run must complete without hanging — affected requests resolve via
timeout -> retry -> ejection/failover — with a degraded hit rate rather
than a deadlock, and the same seed + FaultPlan must replay a
byte-identical timeline.
"""

from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.profiles import H_RDMA_OPT_NONB_I, RDMA_MEM
from repro.core.topology import TopologyConfig
from repro.faults import FaultPlan
from repro.harness.runner import RunConfig
from repro.units import KB, MB, MS, US
from repro.workloads.generator import WorkloadSpec

PLAN_SPECS = ["crash:server=1,at=200us"]


def crash_run(profile, seed=5, observe=False, faults=PLAN_SPECS):
    spec = WorkloadSpec(num_ops=200, num_keys=512, value_length=8 * KB,
                        read_fraction=0.5, distribution="zipf", seed=seed)
    cluster_spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=4),
        num_clients=2, server_mem=16 * MB,
        ssd_limit=64 * MB,
        replication=ReplicationConfig(router="ketama"),
        request_timeout=2 * MS, retry_backoff=200 * US,
        failure_threshold=2, observe=observe)
    plan = FaultPlan.parse(faults) if faults else None
    cfg = RunConfig(profile=profile, workload=spec, cluster=cluster_spec,
                    fault_plan=plan)
    cluster = cfg.build()
    return cfg.run(cluster), cluster


def fingerprint(result):
    return [(r.op, r.key_length, r.status, r.t_issue, r.t_complete,
             r.blocked_time, r.miss_penalty)
            for r in result.records]


class TestCrashOneOfFour:
    def test_completes_with_degraded_hit_rate(self):
        result, cluster = crash_run(H_RDMA_OPT_NONB_I, observe=True)
        # Every operation of every client resolved: no deadlock.
        assert len(result.records) == 2 * 200
        for client in cluster.clients:
            assert client.outstanding_count == 0
        # The failure was detected and routed around.
        counters = cluster.obs.snapshot()["counters"]

        def total(name):
            return sum(v for k, v in counters.items()
                       if k.startswith(name + "{"))

        assert total("client_timeouts") > 0
        assert total("client_retries") > 0
        assert total("client_ejections") >= 1
        assert total("client_failovers") > 0
        assert counters['server_crashes{server="server1"}'] == 1
        # Degraded, not dead: hit rate drops but work still completes.
        healthy, _ = crash_run(H_RDMA_OPT_NONB_I, observe=False,
                               faults=None)
        assert result.summary["miss_rate"] > healthy.summary["miss_rate"]

    def test_blocking_api_also_survives(self):
        result, cluster = crash_run(RDMA_MEM)
        assert len(result.records) == 2 * 200
        for client in cluster.clients:
            assert client.outstanding_count == 0
        assert any(not c.healthy for c in cluster.clients[0]._conns)

    def test_same_seed_and_plan_replays_identically(self):
        a, ca = crash_run(H_RDMA_OPT_NONB_I)
        b, cb = crash_run(H_RDMA_OPT_NONB_I)
        assert fingerprint(a) == fingerprint(b)
        assert a.span == b.span
        for sa, sb in zip(ca.servers, cb.servers):
            assert sa.manager.stats == sb.manager.stats
            assert len(sa.manager.table) == len(sb.manager.table)

    def test_trace_timeline_is_byte_identical(self):
        import json

        from repro.obs.export import chrome_trace_events

        def timeline():
            result, cluster = crash_run(H_RDMA_OPT_NONB_I, observe=True)
            return json.dumps(chrome_trace_events(cluster.obs.tracer),
                              sort_keys=True)

        # Tracing is off (observe only samples metrics) unless trace=True;
        # rebuild with tracing for the byte-level comparison.
        def traced():
            spec = WorkloadSpec(num_ops=120, num_keys=256,
                                value_length=8 * KB, read_fraction=0.5,
                                seed=9)
            cluster_spec = ClusterSpec(
                topology=TopologyConfig(initial_servers=4),
                num_clients=1, server_mem=16 * MB,
                ssd_limit=64 * MB,
                replication=ReplicationConfig(router="ketama"),
                request_timeout=2 * MS, trace=True)
            cfg = RunConfig(profile=H_RDMA_OPT_NONB_I, workload=spec,
                            cluster=cluster_spec,
                            fault_plan=FaultPlan.parse(PLAN_SPECS))
            cluster = cfg.build()
            cfg.run(cluster)
            return json.dumps(chrome_trace_events(cluster.obs.tracer),
                              sort_keys=True)

        assert traced() == traced()

    def test_random_plan_is_reproducible_end_to_end(self):
        plan = FaultPlan.random(seed=11, num_servers=4, horizon=5 * MS,
                                num_faults=2)
        spec = WorkloadSpec(num_ops=150, num_keys=256, value_length=4 * KB,
                            read_fraction=0.5, seed=3)

        def run():
            cluster_spec = ClusterSpec(
                topology=TopologyConfig(initial_servers=4),
                num_clients=2, server_mem=16 * MB,
                replication=ReplicationConfig(router="ketama"),
                request_timeout=2 * MS, eject_duration=5 * MS)
            return RunConfig(profile=RDMA_MEM, workload=spec,
                             cluster=cluster_spec, fault_plan=plan).run()

        a, b = run(), run()
        assert fingerprint(a) == fingerprint(b)
        assert len(a.records) == 2 * 150


class TestFailFast:
    def test_all_servers_ejected_fails_fast(self):
        """With every server down the client returns SERVER_DOWN
        immediately instead of burning a timeout cycle per op."""
        from repro import build_cluster, profiles
        from repro.server.protocol import SERVER_DOWN

        cluster = build_cluster(
            profiles.RDMA_MEM,
            topology=TopologyConfig(initial_servers=2),
            server_mem=16 * MB,
            replication=ReplicationConfig(router="ketama"),
            request_timeout=1 * MS, failure_threshold=1)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]
        for server in cluster.servers:
            server.crash()

        def app(sim):
            # First gets detect and eject both servers the slow way.
            yield from client.get(b"a")
            yield from client.get(b"b")
            assert all(not c.healthy for c in client._conns)
            t0 = sim.now
            g = yield from client.get(b"c")
            assert g.status == SERVER_DOWN
            # Fail-fast: only the 2ms backend fallback fetch — no
            # 1ms-timeout/backoff cycles like the detection gets paid.
            assert sim.now - t0 < 2.5 * MS

        p = cluster.sim.spawn(app(cluster.sim))
        cluster.sim.run(until=p)

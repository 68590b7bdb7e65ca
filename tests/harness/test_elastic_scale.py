"""Acceptance: scale 4 -> 8 under live YCSB-A traffic.

The elasticity contract, end to end through the harness: the fleet
doubles mid-run through online migrations while the traffic is still
running (new owners pull keys they do not hold yet), the hit rate never
craters below 80% of its steady state in any time bucket, the recorded
history stays consistency-clean, and the paced/scaled run replays
byte-identically.
"""

import pytest

from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig, ScaleEvent
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec
from repro.workloads.traffic import make_traffic


def fingerprint(result):
    return [(r.op, r.key_length, r.status, r.t_issue, r.t_complete,
             r.blocked_time, r.miss_penalty)
            for r in result.records]


def scale_config(*, traffic=None, to_servers=8, check=True, observe=False):
    spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=4),
        num_clients=2, server_mem=8 * MB, ssd_limit=64 * MB,
        replication=ReplicationConfig(factor=1, router="ketama"),
        observe=observe)
    workload = WorkloadSpec(num_ops=400, num_keys=256,
                            value_length=4 * KB, seed=11)
    return RunConfig(profile=H_RDMA_OPT_NONB_I, workload=workload,
                     cluster=spec, ycsb="A", check_consistency=check,
                     # Early enough that the migration window overlaps
                     # the traffic (which ends around 0.4 ms).
                     scale_events=(ScaleEvent(at=100e-6,
                                              servers=to_servers),),
                     traffic=traffic)


def bucket_hit_rates(records, buckets=6):
    gets = [r for r in records if r.op == "get"]
    assert gets
    t0 = min(r.t_complete for r in gets)
    t1 = max(r.t_complete for r in gets)
    width = (t1 - t0) / buckets or 1.0
    rates = []
    for b in range(buckets):
        lo, hi = t0 + b * width, t0 + (b + 1) * width
        chunk = [r for r in gets if lo <= r.t_complete < hi] \
            if b < buckets - 1 else [r for r in gets if r.t_complete >= lo]
        if chunk:
            hits = sum(1 for r in chunk if r.status != "MISS")
            rates.append(hits / len(chunk))
    return rates


def counter_total(cluster, name):
    return int(sum(c.value for c in cluster.obs.registry.counters(
        lambda m: m.name == name)))


class TestScaleUnderYCSB:
    def test_four_to_eight_stays_green(self):
        cfg = scale_config(observe=True)
        cluster = cfg.build()
        result = cfg.run(cluster=cluster)
        # The fleet actually doubled and the view flipped.
        assert len(cluster.serving_indices()) == 8
        assert cluster.view_epoch >= 1
        assert cluster.migration is None  # the run settled
        # Live traffic met the migration window: new owners pulled keys.
        assert counter_total(cluster, "double_reads") > 0
        # Zero consistency violations across the migration window.
        assert result.consistency is not None
        assert result.consistency.ok, result.consistency.violations
        # Hit rate never craters: every time bucket holds at least 80%
        # of the steady-state (first-bucket, pre-scale) rate.
        rates = bucket_hit_rates(result.records)
        steady = rates[0]
        assert steady > 0.5
        assert all(rate >= 0.8 * steady for rate in rates), rates

    def test_scale_down_eight_to_four(self):
        cfg = scale_config(to_servers=2)
        cluster = cfg.build()
        result = cfg.run(cluster=cluster)
        assert len(cluster.serving_indices()) == 2
        assert result.consistency.ok, result.consistency.violations


class TestTrafficShapedRuns:
    @pytest.mark.parametrize("shape", ["diurnal", "spike"])
    def test_paced_scale_run_is_deterministic(self, shape):
        def once():
            return scale_config(traffic=make_traffic(shape),
                                check=False).run()

        first, second = once(), once()
        assert fingerprint(first) == fingerprint(second)
        assert len(first.records) == 800  # 400 ops x 2 clients

    def test_pacing_stretches_the_run(self):
        # Diurnal pacing adds inter-op sleeps the classic loop lacks.
        paced = scale_config(traffic=make_traffic(
            "diurnal", base_interval=30e-6), check=False).run()
        unpaced = scale_config(check=False).run()
        assert paced.span > unpaced.span

"""Causal-soundness property test for the profiler (faulty R=2 run).

Every sampled request — across replication fan-out, a server crash,
timeouts, retries, and failover — must yield:

* a rooted span tree over its ``[t_issue, t_done]`` window, and
* a stage attribution that sums *exactly* to its end-to-end latency
  (the attribution is an exact partition by construction).

And the whole report must hash to its pinned digest — profiling may
not observe scheduling artifacts.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.profiles import FATCACHE, H_RDMA_OPT_NONB_I, IPOIB_MEM, RDMA_MEM
from repro.core.topology import TopologyConfig
from repro.faults import FaultPlan
from repro.harness.runner import RunConfig
from repro.net.params import FDR_IPOIB
from repro.obs.profile import attribute, build_tree
from repro.units import KB, MB, US
from repro.workloads.generator import WorkloadSpec
from tests.golden import load


def _run():
    spec = WorkloadSpec(num_ops=120, num_keys=64, value_length=4 * KB,
                        read_fraction=0.5, distribution="zipf", seed=11)
    cluster_spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=3), num_clients=2,
        server_mem=4 * MB, ssd_limit=16 * MB,
        replication=ReplicationConfig(factor=2, write_mode="sync",
                                      router="ketama"),
        request_timeout=2e-3, eject_duration=5e-3,
        profile=True, profile_keep_traces=True)
    cfg = RunConfig(
        profile=H_RDMA_OPT_NONB_I, workload=spec, cluster=cluster_spec,
        fault_plan=FaultPlan.parse(["crash:server=1,at=4ms,duration=20ms"]))
    cluster = cfg.build()
    result = cfg.run(cluster=cluster)
    return cluster, result


def test_every_sampled_request_attributes_exactly():
    cluster, result = _run()
    profiler = cluster.obs.profiler
    # The run quiesced: no live traces left behind.
    assert profiler.live == 0
    records = profiler.traces
    assert result.profile is not None
    assert result.profile.finished == len(records) > 0
    classes = set()
    for trace_id, cls, t_issue, t_done, spans in records:
        classes.add(cls)
        latency = t_done - t_issue
        assert latency > 0
        breakdown = attribute(spans, t_issue, t_done)
        assert sum(breakdown.values()) == pytest.approx(latency, rel=1e-9)
        tree = build_tree(spans, t_issue, t_done)
        assert tree.name == "request"
        assert tree.t0 == t_issue and tree.t1 == t_done
        # Every span landed inside the window (clipping was a no-op for
        # starts; ends may legitimately extend the window).
        for node in tree.children:
            assert t_issue <= node.t0 <= node.t1 <= t_done
    # The faulty mixed workload exercised both GETs and SETs.
    assert any(c.startswith("get") for c in classes)
    assert any(c.startswith("set") for c in classes)


def profile_digest(profile) -> str:
    return hashlib.sha256("\n".join(
        [json.dumps(profile.to_dict(), sort_keys=True)]
        + sorted(profile.folded_lines())).encode()).hexdigest()


def test_profile_matches_pin():
    _, result = _run()
    pin = load("traces")["digests"]["r2-crash/causal-profile"]
    assert profile_digest(result.profile) == pin


@pytest.mark.parametrize("case,profile", [
    # The value travels inline with the header (IPoIB): copy and slab
    # allocation follow parse on the worker with nothing in between.
    ("fatcache-set/causal-profile", FATCACHE),
    # The value is RDMA-written; no early ack, so nothing happens
    # between the copy and the slab allocation either.
    ("rdma-mem-set/causal-profile", RDMA_MEM),
], ids=["fatcache", "rdma-mem"])
def test_set_path_profile_matches_pin(case, profile):
    """Every request of a write-heavy run, profiled: six clients on two
    servers of two workers each queue for the workers, and data twice
    the memory evicts (RDMA_MEM) or spills to the SSD (FATCACHE). The
    SET stage boundaries under that contention hash to their pin."""
    spec = WorkloadSpec(num_ops=60, num_keys=256, value_length=8 * KB,
                        read_fraction=0.3, distribution="zipf", seed=23)
    cluster_spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=2), num_clients=6,
        server_mem=1 * MB, ssd_limit=2 * MB, worker_threads=2,
        profile=True)
    result = RunConfig(profile=profile, workload=spec,
                       cluster=cluster_spec).run()
    assert profile_digest(result.profile) == load("traces")["digests"][case]


def test_ipoib_mget_profile_matches_pin():
    """Every request of a read-heavy IPoIB run, profiled, with reads
    batched into mgets of eight. The client's kernel receive costs three
    times the server's send here, so the responses of one batch queue on
    their socket behind each other: the pin covers the receive clock's
    busy branch as well as its idle one."""
    spec = WorkloadSpec(num_ops=80, num_keys=256, value_length=4 * KB,
                        read_fraction=0.9, distribution="zipf", seed=29)
    cluster_spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=2), num_clients=3,
        server_mem=2 * MB, worker_threads=2,
        ipoib_params=dataclasses.replace(FDR_IPOIB, cpu_recv=12 * US),
        profile=True)
    result = RunConfig(profile=IPOIB_MEM, workload=spec, mget_batch=8,
                       cluster=cluster_spec).run()
    pin = load("traces")["digests"]["ipoib-mget/causal-profile"]
    assert profile_digest(result.profile) == pin


def test_trace_window_matches_recorded_latency():
    """For ordinary completed ops the attribution window equals the
    recorded ``ReqResult`` latency (t_complete - t_issue); windows may
    only exceed it for sync-replica barriers that outlive completion."""
    cluster, result = _run()
    by_issue = {}
    for r in result.records:
        by_issue.setdefault(round(r.t_issue, 12), []).append(r)
    matched = 0
    for _tid, _cls, t_issue, t_done, _spans in cluster.obs.profiler.traces:
        recs = by_issue.get(round(t_issue, 12), [])
        for r in recs:
            if r.t_complete <= t_done + 1e-12:
                matched += 1
                break
    assert matched == len(cluster.obs.profiler.traces)

"""Tests for mget batching in the blocking driver."""

from repro.core import metrics
from repro.core.cluster import ClusterSpec
from repro.core.profiles import H_RDMA_OPT_BLOCK, RDMA_MEM
from repro.harness.runner import RunConfig
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec


def run(mget_batch, read_fraction=1.0, ops=120):
    spec = WorkloadSpec(num_ops=ops, num_keys=256, value_length=4 * KB,
                        read_fraction=read_fraction, seed=4)
    cfg = RunConfig(profile=RDMA_MEM, workload=spec, mget_batch=mget_batch,
                    cluster=ClusterSpec(server_mem=16 * MB))
    cluster = cfg.build()
    return cluster, cfg.run(cluster)


def test_batching_preserves_op_count():
    _, result = run(mget_batch=8)
    assert result.ops == 120
    apis = {r.api for r in result.records}
    assert "mget" in apis


def test_batching_reduces_read_latency_span():
    _, unbatched = run(mget_batch=0)
    _, batched = run(mget_batch=8)
    assert batched.span < unbatched.span


def test_writes_flush_pending_batch_in_order():
    """A write between reads must not be reordered past them."""
    cluster, result = run(mget_batch=16, read_fraction=0.5)
    assert result.ops == 120
    # No operation lost, no client stuck.
    assert all(c.outstanding_count == 0 for c in cluster.clients)


def test_batch_of_one_uses_plain_get():
    _, result = run(mget_batch=2, read_fraction=0.5, ops=40)
    # Singleton flushes fall back to get; batch pairs use mget.
    apis = [r.api for r in result.records]
    assert "get" in apis or "mget" in apis


def test_batching_on_hybrid_design():
    spec = WorkloadSpec(num_ops=150, num_keys=700, value_length=30 * KB,
                        read_fraction=0.9, seed=2)
    result = RunConfig(profile=H_RDMA_OPT_BLOCK, workload=spec,
                       mget_batch=10,
                       cluster=ClusterSpec(server_mem=8 * MB,
                                           ssd_limit=64 * MB)).run()
    assert result.ops == 150
    assert metrics.miss_rate(result.records) == 0.0

"""Tests for warmup runs and server-balance metrics."""

from repro.core import metrics
from repro.core.cluster import ClusterSpec
from repro.core.profiles import H_RDMA_OPT_NONB_I, RDMA_MEM
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec


def test_warmup_records_discarded():
    spec = WorkloadSpec(num_ops=50, num_keys=128, value_length=4 * KB,
                        seed=3)
    result = RunConfig(profile=RDMA_MEM, workload=spec, warmup_ops=30,
                       cluster=ClusterSpec(server_mem=16 * MB)).run()
    assert result.ops == 50  # warmup ops not in the measured records


def test_warmup_changes_initial_state():
    """After warmup the LRU reflects accesses, not preload order."""
    spec = WorkloadSpec(num_ops=100, num_keys=700, value_length=30 * KB,
                        read_fraction=1.0, seed=3)

    def miss_rate(warmup):
        res = RunConfig(profile=RDMA_MEM, workload=spec,
                        warmup_ops=warmup,
                        cluster=ClusterSpec(server_mem=8 * MB)).run()
        return metrics.miss_rate(res.records)

    cold = miss_rate(0)
    warm = miss_rate(400)
    # Warmed cache holds the hot set: fewer misses in the measured run.
    assert warm <= cold


def test_server_distribution_and_imbalance():
    spec = WorkloadSpec(num_ops=200, num_keys=512, value_length=2 * KB,
                        seed=5)
    result = RunConfig(profile=H_RDMA_OPT_NONB_I, workload=spec,
                       cluster=ClusterSpec(
                           topology=TopologyConfig(initial_servers=4),
                           server_mem=16 * MB, ssd_limit=64 * MB)).run()
    dist = metrics.server_distribution(result.records)
    assert set(dist) == {0, 1, 2, 3}
    assert sum(dist.values()) == 200
    imb = metrics.load_imbalance(result.records)
    assert 1.0 <= imb < 2.0  # modulo routing is roughly balanced


def test_load_imbalance_empty():
    assert metrics.load_imbalance([]) == 0.0

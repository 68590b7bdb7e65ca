"""RunConfig: the one way to build and run an experiment."""

import pytest

from repro.core.cluster import ClusterSpec
from repro.core.profiles import H_RDMA_OPT_NONB_I, RDMA_MEM
from repro.harness.runner import RunConfig
from repro.units import KB, MB
from repro.workloads.generator import Op, WorkloadSpec


def small_spec(**kw):
    defaults = dict(num_ops=60, num_keys=64, value_length=4 * KB,
                    read_fraction=0.5, seed=2)
    defaults.update(kw)
    return WorkloadSpec(**defaults)


def test_runconfig_build_and_run():
    cfg = RunConfig(profile=H_RDMA_OPT_NONB_I, workload=small_spec(),
                    cluster=ClusterSpec(server_mem=8 * MB,
                                        ssd_limit=16 * MB))
    result = cfg.run()
    assert result.ops == 60
    assert result.api == "nonb-i"
    assert result.summary["mean_latency"] > 0


def test_runconfig_spec_overrides():
    cfg = RunConfig(profile=RDMA_MEM, workload=small_spec(),
                    spec_overrides=dict(num_servers=2, server_mem=8 * MB))
    cluster = cfg.build()
    assert len(cluster.servers) == 2
    assert cluster.total_items == 64  # preloaded


def test_runconfig_cluster_and_overrides_exclusive():
    cfg = RunConfig(profile=RDMA_MEM, workload=small_spec(),
                    cluster=ClusterSpec(),
                    spec_overrides=dict(num_servers=2))
    with pytest.raises(TypeError):
        cfg.build()


def test_runconfig_run_requires_workload():
    with pytest.raises(ValueError):
        RunConfig(profile=RDMA_MEM).run()


def test_runconfig_build_once_run_many():
    cfg = RunConfig(profile=RDMA_MEM, workload=small_spec(),
                    spec_overrides=dict(server_mem=8 * MB))
    cluster = cfg.build()
    a = cfg.run(cluster=cluster)
    b = cfg.run(cluster=cluster)
    assert a.ops == b.ops == 60  # reset_metrics isolated the runs


def test_runconfig_warmup_discards_records():
    cfg = RunConfig(profile=RDMA_MEM, workload=small_spec(),
                    spec_overrides=dict(server_mem=8 * MB),
                    warmup_ops=20)
    result = cfg.run()
    assert result.ops == 60  # warmup records never surface


def test_runconfig_run_streams():
    cfg = RunConfig(profile=RDMA_MEM,
                    spec_overrides=dict(server_mem=8 * MB))
    stream = [Op("set", b"a-key", 2 * KB), Op("get", b"a-key", 0)]
    result = cfg.run_streams([stream])
    assert result.ops == 2
    assert result.records[1].status == "HIT"


def _too_many_streams():
    cfg = RunConfig(profile=RDMA_MEM,
                    spec_overrides=dict(num_clients=2, server_mem=8 * MB))
    cfg.run_streams([[Op("get", b"k", 0)] * 5] * 3)


def _zero_window():
    RunConfig(profile=H_RDMA_OPT_NONB_I, workload=small_spec(), window=0,
              spec_overrides=dict(server_mem=8 * MB,
                                  ssd_limit=16 * MB)).run()


def _bad_ycsb_letter():
    # Rejected before any cluster exists: with a bad ClusterSpec field in
    # the overrides, build() would raise TypeError first.
    RunConfig(profile=RDMA_MEM, workload=small_spec(), ycsb="Z",
              spec_overrides=dict(no_such_field=1)).run()


@pytest.mark.parametrize("run, message", [
    (_too_many_streams, "3 op streams for 2 clients"),
    (_zero_window, "window must be >= 1"),
    (_bad_ycsb_letter, "unknown YCSB workload"),
], ids=["stream-count", "window", "ycsb-letter"])
def test_runconfig_rejects_bad_run_arguments(run, message):
    with pytest.raises(ValueError, match=message):
        run()

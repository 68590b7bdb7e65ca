"""RunConfig: the one way to build and run an experiment."""

import pytest

from repro.cli import main
from repro.consistency import Scenario
from repro.core.cluster import (ClusterSpec, ReplicationConfig,
                                build_cluster)
from repro.core.profiles import H_RDMA_OPT_NONB_I, RDMA_MEM
from repro.harness.runner import RunConfig
from repro.sim import Simulator
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


def _run_config(**kw):
    return RunConfig(profile=RDMA_MEM, **kw)


def _build_cluster(**kw):
    return build_cluster(RDMA_MEM, **kw)


@pytest.mark.parametrize("build, keyword", [
    (ClusterSpec, "num_servers"),
    (ClusterSpec, "router"),
    (ClusterSpec, "replication_factor"),
    (ClusterSpec, "write_mode"),
    (_build_cluster, "num_servers"),
    (_run_config, "spec_overrides"),
    (_run_config, "replication"),
    (_run_config, "topology"),
    # One scheduler: nothing selects or injects another.
    (Simulator, "fast_lane"),
    (_run_config, "sim"),
    (_build_cluster, "sim"),
    (Scenario, "fast_lane"),
], ids=lambda arg: getattr(arg, "__name__", arg).strip("_"))
def test_removed_keywords_are_rejected(build, keyword):
    """A cluster is described by ``ClusterSpec(topology=, replication=)``
    and nothing else: the flat and override spellings are unknown
    keywords, refused where they are written."""
    with pytest.raises(TypeError, match=keyword):
        build(**{keyword: None})


def test_removed_check_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["check", "--seed", "1", "--legacy-sim"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --legacy-sim" in capsys.readouterr().err


def test_runconfig_run_requires_workload():
    with pytest.raises(ValueError):
        RunConfig(profile=RDMA_MEM).run()


def test_runconfig_build_once_run_many():
    cfg = RunConfig(profile=RDMA_MEM, workload=small_spec(),
                    cluster=ClusterSpec(server_mem=8 * MB))
    cluster = cfg.build()
    a = cfg.run(cluster=cluster)
    b = cfg.run(cluster=cluster)
    assert a.ops == b.ops == 60  # reset_metrics isolated the runs


def test_runconfig_warmup_discards_records():
    cfg = RunConfig(profile=RDMA_MEM, workload=small_spec(),
                    cluster=ClusterSpec(server_mem=8 * MB),
                    warmup_ops=20)
    result = cfg.run()
    assert result.ops == 60  # warmup records never surface


def test_runconfig_run_streams():
    cfg = RunConfig(profile=RDMA_MEM,
                    cluster=ClusterSpec(server_mem=8 * MB))
    stream = [Op("set", b"a-key", 2 * KB), Op("get", b"a-key", 0)]
    result = cfg.run_streams([stream])
    assert result.ops == 2
    assert result.records[1].status == "HIT"


def _too_many_streams():
    cfg = RunConfig(profile=RDMA_MEM,
                    cluster=ClusterSpec(num_clients=2, server_mem=8 * MB))
    cfg.run_streams([[Op("get", b"k", 0)] * 5] * 3)


def _zero_window():
    RunConfig(profile=H_RDMA_OPT_NONB_I, workload=small_spec(), window=0,
              cluster=ClusterSpec(server_mem=8 * MB,
                                  ssd_limit=16 * MB)).run()


def _bad_ycsb_letter():
    # Rejected before any cluster exists: build() would refuse three
    # copies on one server with its own ValueError first.
    RunConfig(profile=RDMA_MEM, workload=small_spec(), ycsb="Z",
              cluster=ClusterSpec(
                  replication=ReplicationConfig(factor=3))).run()


@pytest.mark.parametrize("run, message", [
    (_too_many_streams, "3 op streams for 2 clients"),
    (_zero_window, "window must be >= 1"),
    (_bad_ycsb_letter, "unknown YCSB workload"),
], ids=["stream-count", "window", "ycsb-letter"])
def test_runconfig_rejects_bad_run_arguments(run, message):
    with pytest.raises(ValueError, match=message):
        run()

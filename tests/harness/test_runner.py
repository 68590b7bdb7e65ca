"""Tests for the workload runner."""

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


def rdma_mem(spec, **kw):
    return RunConfig(profile=RDMA_MEM, workload=spec,
                     cluster=ClusterSpec(server_mem=8 * MB), **kw)


def nonb_i(spec, **kw):
    return RunConfig(profile=H_RDMA_OPT_NONB_I, workload=spec,
                     cluster=ClusterSpec(server_mem=8 * MB,
                                         ssd_limit=16 * MB), **kw)


def test_setup_cluster_preloads_dataset():
    spec = small_spec()
    cluster = rdma_mem(spec).build()
    assert cluster.total_items == 64


def test_setup_cluster_wires_backend_value_size():
    spec = small_spec()
    cluster = rdma_mem(spec).build()
    assert cluster.backend._value_length_for(b"anything") == 4 * KB


def test_setup_cluster_no_preload():
    spec = small_spec()
    cluster = rdma_mem(spec, preload=False).build()
    assert cluster.total_items == 0


def test_blocking_run_produces_records():
    spec = small_spec()
    result = rdma_mem(spec).run()
    assert result.ops == 60
    assert result.api == "blocking"
    assert result.span > 0
    assert result.summary["mean_latency"] > 0


def test_nonblocking_run_uses_profile_api():
    spec = small_spec()
    cfg = nonb_i(spec)
    cluster = cfg.build()
    result = cfg.run(cluster)
    assert result.api == "nonb-i"
    assert result.ops == 60
    # All operations drained at the end of the run.
    assert all(c.outstanding_count == 0 for c in cluster.clients)


def test_api_override():
    spec = small_spec()
    result = nonb_i(spec, api="blocking").run()
    assert result.api == "blocking"
    assert result.summary["overlap_pct"] < 5.0


def test_unknown_api_rejected():
    spec = small_spec()
    with pytest.raises(ValueError):
        rdma_mem(spec, api="telepathy").run()


def test_run_ops_with_explicit_streams():
    spec = small_spec()
    stream = [Op("set", b"a-key", 2 * KB), Op("get", b"a-key", 0)]
    result = rdma_mem(spec).run_streams([stream])
    assert result.ops == 2
    assert result.records[1].status == "HIT"


def test_window_caps_outstanding():
    spec = small_spec(num_ops=40, read_fraction=1.0)
    cfg = nonb_i(spec, window=4)
    cluster = cfg.build()
    max_seen = {"n": 0}
    client = cluster.clients[0]
    orig_issue = client._issue

    def tracking_issue(*args, **kwargs):
        max_seen["n"] = max(max_seen["n"], client.outstanding_count)
        return orig_issue(*args, **kwargs)

    client._issue = tracking_issue
    cfg.run(cluster)
    assert max_seen["n"] <= 4


def test_multi_client_streams_differ():
    spec = small_spec(num_ops=30)
    result = RunConfig(profile=RDMA_MEM, workload=spec,
                       cluster=ClusterSpec(num_clients=2,
                                           server_mem=8 * MB)).run()
    assert result.ops == 60

"""Tests for the YCSB core-workload presets."""

import pytest

from repro.units import KB, MB
from repro.workloads.ycsb import (
    CORE_WORKLOADS,
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    WORKLOAD_D,
    WORKLOAD_E,
    WORKLOAD_F,
    YCSBWorkload,
    generate_ycsb_ops,
)


def gen(workload, n=4000, keys=500):
    return generate_ycsb_ops(workload, num_ops=n, num_keys=keys,
                             value_length=1 * KB, seed=7)


class TestPresets:
    def test_all_core_workloads_present(self):
        assert set(CORE_WORKLOADS) == {"A", "B", "C", "D", "E", "F"}

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            YCSBWorkload("broken", read_fraction=0.5, update_fraction=0.1)

    def test_a_mix(self):
        ops = gen(WORKLOAD_A)
        reads = sum(1 for o in ops if o.kind == "get")
        assert 0.45 < reads / len(ops) < 0.55

    def test_b_mix(self):
        ops = gen(WORKLOAD_B)
        reads = sum(1 for o in ops if o.kind == "get")
        assert 0.92 < reads / len(ops) < 0.98

    def test_c_read_only(self):
        assert all(o.kind == "get" for o in gen(WORKLOAD_C))

    def test_e_mix_and_scan_shape(self):
        ops = gen(WORKLOAD_E)
        scans = [o for o in ops if o.kind == "scan"]
        assert 0.92 < len(scans) / len(ops) < 0.98
        inserts = sum(1 for o in ops if o.kind == "set")
        assert 0.02 < inserts / len(ops) < 0.08
        for o in scans:
            assert 1 <= len(o.keys) <= WORKLOAD_E.max_scan_len
            assert o.key == o.keys[0]

    def test_f_has_rmw(self):
        ops = gen(WORKLOAD_F)
        rmw = sum(1 for o in ops if o.kind == "rmw")
        assert 0.45 < rmw / len(ops) < 0.55

    def test_d_inserts_fresh_keys(self):
        ops = gen(WORKLOAD_D)
        inserts = [o for o in ops
                   if o.kind == "set" and o.key.startswith(b"ins:")]
        assert 0.03 < len(inserts) / len(ops) < 0.07
        # Reads may also hit freshly inserted records (read-latest).
        assert any(o.kind == "get" and o.key.startswith(b"ins:")
                   for o in ops)

    def test_d_reads_skew_to_latest(self):
        ops = gen(WORKLOAD_D, n=8000, keys=1000)
        read_keys = [o.key for o in ops
                     if o.kind == "get" and not o.key.startswith(b"ins:")]
        # "latest": high key indices (loaded last) dominate reads.
        indices = [int(k.split(b":")[1]) for k in read_keys]
        assert sum(1 for i in indices if i > 500) > len(indices) * 0.6

    def test_deterministic(self):
        assert gen(WORKLOAD_A) == gen(WORKLOAD_A)

    def test_clients_decorrelated(self):
        a = generate_ycsb_ops(WORKLOAD_A, 200, 100, 1 * KB, seed=7,
                              client_index=0)
        b = generate_ycsb_ops(WORKLOAD_A, 200, 100, 1 * KB, seed=7,
                              client_index=1)
        assert a != b


class TestOnCluster:
    @pytest.mark.parametrize("workload", [WORKLOAD_A, WORKLOAD_D,
                                          WORKLOAD_F])
    def test_runs_to_completion(self, workload):
        from repro.core.cluster import ClusterSpec
        from repro.core.profiles import H_RDMA_OPT_NONB_I
        from repro.harness.runner import RunConfig
        from repro.workloads.generator import WorkloadSpec

        spec = WorkloadSpec(num_ops=1, num_keys=128, value_length=4 * KB)
        cfg = RunConfig(profile=H_RDMA_OPT_NONB_I, workload=spec,
                        cluster=ClusterSpec(server_mem=16 * MB,
                                            ssd_limit=32 * MB))
        cluster = cfg.build()
        ops = generate_ycsb_ops(workload, num_ops=120, num_keys=128,
                                value_length=4 * KB, seed=3)
        result = cfg.run_streams([ops], cluster=cluster)
        # rmw ops expand into a read + a write record.
        rmw = sum(1 for o in ops if o.kind == "rmw")
        assert result.ops == 120 + rmw
        assert all(c.outstanding_count == 0 for c in cluster.clients)

    def test_rmw_blocking_driver(self):
        from repro.core.cluster import ClusterSpec
        from repro.core.profiles import RDMA_MEM
        from repro.harness.runner import RunConfig
        from repro.workloads.generator import Op, WorkloadSpec

        spec = WorkloadSpec(num_ops=1, num_keys=16, value_length=1 * KB)
        ops = [Op("rmw", b"key:0000000001", 1 * KB)]
        result = RunConfig(
            profile=RDMA_MEM, workload=spec,
            cluster=ClusterSpec(server_mem=8 * MB)).run_streams([ops])
        assert result.ops == 2  # one get + one set
        kinds = sorted(r.op for r in result.records)
        assert kinds == ["get", "set"]

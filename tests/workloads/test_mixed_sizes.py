"""Tests for weighted value-size mixtures in workloads."""

import pytest

from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec, generate_ops, make_dataset

MIX = ((512, 0.7), (64 * KB, 0.3))


def spec(**kw):
    defaults = dict(num_ops=2000, num_keys=600, value_length=8 * KB,
                    value_sizes=MIX, seed=9)
    defaults.update(kw)
    return WorkloadSpec(**defaults)


class TestSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            spec(value_sizes=((512, 0.5), (1024, 0.2)))
        with pytest.raises(ValueError):
            spec(value_sizes=())

    def test_sizes_assigned_per_key_stably(self):
        s = spec()
        sizes = [s.size_of_index(i) for i in range(600)]
        assert set(sizes) == {512, 64 * KB}
        assert sizes == [s.size_of_index(i) for i in range(600)]

    def test_mixture_respects_weights(self):
        s = spec(num_keys=5000)
        small = sum(1 for i in range(5000) if s.size_of_index(i) == 512)
        assert 0.65 < small / 5000 < 0.75

    def test_total_bytes_reflects_mixture(self):
        s = spec()
        assert s.total_bytes == sum(s.size_of_index(i) for i in range(600))

    def test_value_length_for_parses_keys(self):
        s = spec()
        pairs = make_dataset(s)
        for key, size in pairs[:50]:
            assert s.value_length_for(key) == size
        # Unknown key shapes fall back to the scalar default.
        assert s.value_length_for(b"ins:001:0000000001") == 8 * KB
        assert s.value_length_for(b"weird") == 8 * KB

    def test_single_size_unchanged(self):
        s = spec(value_sizes=None)
        assert s.total_bytes == 600 * 8 * KB
        assert s.value_length_for(b"key:0000000003") == 8 * KB


class TestOps:
    def test_op_sizes_match_key_assignment(self):
        s = spec()
        ops = generate_ops(s)
        for op in ops:
            assert op.value_length == s.value_length_for(op.key)

    def test_dataset_and_ops_agree(self):
        s = spec()
        sizes = dict(make_dataset(s))
        for op in generate_ops(s):
            assert sizes[op.key] == op.value_length


class TestOnCluster:
    def test_mixed_sizes_populate_multiple_slab_classes(self):
        from repro.core.cluster import ClusterSpec
        from repro.core.profiles import H_RDMA_OPT_NONB_I
        from repro.harness.runner import RunConfig

        s = spec(num_ops=400, num_keys=1200,
                 value_sizes=((512, 0.5), (30 * KB, 0.5)))
        cfg = RunConfig(profile=H_RDMA_OPT_NONB_I, workload=s,
                        cluster=ClusterSpec(server_mem=8 * MB,
                                            ssd_limit=64 * MB))
        cluster = cfg.build()
        mgr = cluster.servers[0].manager
        classes_used = [c for c in mgr.allocator.classes if c.pages]
        assert len(classes_used) >= 2
        # The adaptive policy picks different schemes for the two
        # classes (mmap below the 32 KB cutoff, cached above).
        small = mgr.allocator.class_for(512 + 70)
        large = mgr.allocator.class_for(30 * KB + 70)
        assert mgr.scheme_name_for(small) == "mmap"
        assert mgr.scheme_name_for(large) == "mmap" \
            if large.chunk_size <= 32 * KB else "cached"

        result = cfg.run(cluster)
        assert result.ops == 400
        assert result.summary["miss_rate"] == 0.0  # hybrid retains all

    def test_miss_repopulation_uses_per_key_size(self):
        from repro.core.cluster import ClusterSpec
        from repro.core.profiles import RDMA_MEM
        from repro.harness.runner import RunConfig

        s = spec(num_keys=300, value_sizes=((1 * KB, 0.5), (16 * KB, 0.5)))
        cluster = RunConfig(profile=RDMA_MEM, workload=s, preload=False,
                            cluster=ClusterSpec(server_mem=8 * MB)).build()
        client = cluster.clients[0]
        key = make_dataset(s)[7][0]
        expected = s.value_length_for(key)
        out = {}

        def app(sim):
            g = yield from client.get(key)  # miss -> backend -> re-set
            out["first"] = g.status
            g2 = yield from client.get(key)
            out["len"] = g2.value_length

        cluster.sim.run(until=cluster.sim.spawn(app(cluster.sim)))
        assert out["first"] == "MISS"
        assert out["len"] == expected

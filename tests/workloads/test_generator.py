"""Tests for workload specs, op streams, and the bursty pattern."""

import pytest

from repro.core.topology import TopologyConfig
from repro.units import KB, MB
from repro.workloads.bursty import BurstyWorkload
from repro.workloads.generator import WorkloadSpec, generate_ops, make_dataset
from repro.workloads.keyspace import Keyspace


class TestKeyspace:
    def test_keys_fixed_width_and_unique(self):
        ks = Keyspace(1000)
        keys = [ks.key(i) for i in range(1000)]
        assert len(set(keys)) == 1000
        assert len({len(k) for k in keys}) == 1  # constant length

    def test_bounds(self):
        ks = Keyspace(10)
        with pytest.raises(IndexError):
            ks.key(10)
        with pytest.raises(IndexError):
            ks.key(-1)
        with pytest.raises(ValueError):
            Keyspace(0)

    def test_all_keys_iterates_everything(self):
        ks = Keyspace(25)
        assert len(list(ks.all_keys())) == 25


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_ops=10, num_keys=10, value_length=10,
                         read_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(num_ops=0, num_keys=10, value_length=10)

    def test_total_bytes(self):
        spec = WorkloadSpec(num_ops=1, num_keys=100, value_length=32 * KB)
        assert spec.total_bytes == 100 * 32 * KB


class TestGenerateOps:
    def spec(self, **kw):
        defaults = dict(num_ops=2000, num_keys=500, value_length=8 * KB,
                        read_fraction=0.5, seed=4)
        defaults.update(kw)
        return WorkloadSpec(**defaults)

    def test_count_and_sizes(self):
        ops = generate_ops(self.spec())
        assert len(ops) == 2000
        assert all(op.value_length == 8 * KB for op in ops)

    def test_read_fraction_respected(self):
        ops = generate_ops(self.spec(read_fraction=0.8))
        reads = sum(1 for op in ops if op.kind == "get")
        assert 0.74 < reads / len(ops) < 0.86

    def test_read_only_and_write_only(self):
        assert all(op.kind == "get"
                   for op in generate_ops(self.spec(read_fraction=1.0)))
        assert all(op.kind == "set"
                   for op in generate_ops(self.spec(read_fraction=0.0)))

    def test_deterministic_per_client(self):
        a = generate_ops(self.spec(), client_index=0)
        b = generate_ops(self.spec(), client_index=0)
        assert a == b

    def test_clients_decorrelated(self):
        a = generate_ops(self.spec(), client_index=0)
        b = generate_ops(self.spec(), client_index=1)
        assert a != b

    def test_keys_within_keyspace(self):
        ks = Keyspace(500)
        valid = set(ks.all_keys())
        ops = generate_ops(self.spec())
        assert all(op.key in valid for op in ops)

    def test_make_dataset_covers_keyspace(self):
        spec = self.spec(num_keys=50)
        pairs = make_dataset(spec)
        assert len(pairs) == 50
        assert all(vl == 8 * KB for _, vl in pairs)
        assert len({k for k, _ in pairs}) == 50


    @pytest.mark.parametrize("pattern", ["basic", "counter", "ttl-churn",
                                         "hot-storm"])
    def test_streams_share_the_datasets_key_and_size_objects(self, pattern):
        """A stream's key for index i *is* the dataset's key i, and every
        value length is one shared ``int`` per distinct size: a preloaded
        key and the ops that hit it hold one object between them."""
        spec = WorkloadSpec(num_ops=400, num_keys=300, value_length=4 * KB,
                            value_sizes=((512, 0.5), (4 * KB, 0.3),
                                         (32 * KB, 0.2)),
                            pattern=pattern, seed=5)
        dataset = make_dataset(spec)
        keys = {key: i for i, (key, _) in enumerate(dataset)}
        sizes = {}
        for _, size in dataset:
            assert sizes.setdefault(size, size) is size
        assert len(sizes) == 3
        for client in range(3):
            for op in generate_ops(spec, client_index=client):
                assert dataset[keys[op.key]][0] is op.key
                assert sizes[op.value_length] is op.value_length
        ks = Keyspace(spec.num_keys)
        assert all(ks.key(i) is key for i, (key, _) in enumerate(dataset))


class TestBursty:
    def test_geometry(self):
        w = BurstyWorkload(block_size=2 * MB, chunk_size=256 * KB,
                           total_bytes=16 * MB)
        assert w.chunks_per_block == 8
        assert w.num_blocks == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyWorkload(block_size=1 * MB, chunk_size=300 * KB,
                           total_bytes=4 * MB)
        with pytest.raises(ValueError):
            BurstyWorkload(block_size=1 * MB, chunk_size=256 * KB,
                           total_bytes=1 * MB + 5)

    def test_chunk_keys_unique_across_blocks(self):
        w = BurstyWorkload(block_size=1 * MB, chunk_size=256 * KB,
                           total_bytes=4 * MB)
        all_keys = [k for b in range(w.num_blocks) for k in w.chunk_keys(b)]
        assert len(set(all_keys)) == len(all_keys) == 16
        with pytest.raises(IndexError):
            w.chunk_keys(99)

    def test_drivers_roundtrip_on_cluster(self):
        from repro import build_cluster, profiles

        w = BurstyWorkload(block_size=1 * MB, chunk_size=256 * KB,
                           total_bytes=2 * MB)
        cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                                topology=TopologyConfig(initial_servers=2),
                                server_mem=16 * MB, ssd_limit=32 * MB)
        client = cluster.clients[0]
        sim = cluster.sim

        def app(sim):
            for b in range(w.num_blocks):
                yield from w.write_block_nonblocking(client, b)
            for b in range(w.num_blocks):
                yield from w.read_block_nonblocking(client, b)

        sim.run(until=sim.spawn(app(sim)))
        gets = [r for r in client.records if r.op == "get"]
        assert len(gets) == 8
        assert all(r.status == "HIT" for r in gets)

    def test_nonblocking_block_write_faster_than_blocking(self):
        from repro import build_cluster, profiles

        def run(nonblocking):
            w = BurstyWorkload(block_size=2 * MB, chunk_size=256 * KB,
                               total_bytes=2 * MB)
            profile = (profiles.H_RDMA_OPT_NONB_I if nonblocking
                       else profiles.H_RDMA_OPT_BLOCK)
            cluster = build_cluster(profile,
                                    topology=TopologyConfig(initial_servers=2),
                                    server_mem=16 * MB, ssd_limit=32 * MB)
            client = cluster.clients[0]
            sim = cluster.sim

            def app(sim):
                if nonblocking:
                    yield from w.write_block_nonblocking(client, 0)
                else:
                    yield from w.write_block_blocking(client, 0)

            sim.run(until=sim.spawn(app(sim)))
            return sim.now

        assert run(True) < run(False)

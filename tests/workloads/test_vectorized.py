"""Generated op streams are pinned: each stream below hashes to the
digest committed in ``tests/golden/op_streams.json``.

The digests were generated while the vectorized ``generate_ops`` /
``generate_ycsb_ops`` still had per-op-loop reference twins, and were
asserted against both. Every pattern, distribution and YCSB mix is
covered, and so are the streams the paper figures and kvbench draw,
each for two seeds and two client indices.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from benchmarks.kvbench.workloads import WORKLOADS, stream_offset
from repro.harness.figures import BASE_SERVER_MEM, BASE_VALUE, _spec_for
from repro.units import KB
from repro.workloads.generator import (
    PATTERNS,
    Op,
    WorkloadSpec,
    generate_ops,
    make_dataset,
)
from repro.workloads.keyspace import Keyspace
from repro.workloads.ycsb import (CORE_WORKLOADS, YCSBWorkload,
                                  generate_ycsb_ops)
from tests.golden import load

PINS = load("op_streams")["streams"]


def stream_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.kind, op.key, op.value_length, op.ttl, op.delta,
                       op.initial, op.keys)).encode())
    return h.hexdigest()


def _ops(spec, offset=0, seeds=None):
    """``(seeds, make(seed, client))`` for the streams of ``spec`` under
    ``seeds``, by default two spec seeds."""
    return seeds or (spec.seed, spec.seed + 1), lambda seed, ci: generate_ops(
        dataclasses.replace(spec, seed=seed), client_index=ci,
        stream_offset=offset)


def _ycsb(workload, num_ops=400, num_keys=128, value_length=512):
    return (42, 43), lambda seed, ci: generate_ycsb_ops(
        workload, num_ops, num_keys, value_length, seed=seed,
        client_index=ci)


def _figure(fit, ops, rf=0.5, value=BASE_VALUE):
    return _ops(_spec_for(fit, 16, ops, value, rf))


STREAMS = {
    **{f"pattern/{p}/{d}": _ops(WorkloadSpec(
        num_ops=400, num_keys=128, value_length=256, read_fraction=0.6,
        distribution=d, seed=7, pattern=p, ttl=0.02))
       for p in PATTERNS for d in ("zipf", "uniform")},
    "size-mixture/offset=13": _ops(WorkloadSpec(
        num_ops=300, num_keys=64, value_length=1 * KB, seed=3,
        value_sizes=((512, 0.8), (4 * KB, 0.2))), offset=13),
    **{f"read-fraction/{rf}": _ops(WorkloadSpec(
        num_ops=100, num_keys=32, value_length=64, read_fraction=rf,
        seed=11)) for rf in (0.0, 1.0)},
    **{f"ycsb/{name}": _ycsb(wl) for name, wl in CORE_WORKLOADS.items()},
    # A latest-skewed mix with no inserts takes the vectorized
    # newest-first indexing.
    "ycsb/latest-no-insert": _ycsb(YCSBWorkload(
        "DL", read_fraction=0.9, update_fraction=0.1,
        distribution="latest"), 300, 64, 256),
    # The default-scale (16) workloads of harness/figures.py.
    "fig1+2+6/fit": _figure(True, 1500),
    "fig1+2+6/nofit": _figure(False, 1500),
    **{f"fig7a/{rf}": _figure(False, 1200, rf) for rf in (1.0, 0.5)},
    **{f"fig7b/{size // KB}KB": _figure(False, 800, value=size)
       for size in (1 * KB, 4 * KB, 16 * KB, 64 * KB)},
    "fig7c": _ops(WorkloadSpec(
        num_ops=150, num_keys=2 * (BASE_SERVER_MEM // 16) // (8 * KB),
        value_length=8 * KB, read_fraction=0.5, seed=3)),
    **{f"fig8a/{rf}": _figure(False, 1000, rf) for rf in (1.0, 0.5)},
    "fig8b": _ops(WorkloadSpec(num_ops=1, num_keys=8, value_length=256 * KB)),
    # kvbench fixes the dataset seed; its --seed picks stream offsets.
    **{f"kvbench/{name}": ((42, 43), lambda seed, ci, spec=w.spec():
                           generate_ops(spec, client_index=ci,
                                        stream_offset=stream_offset(seed, 0)))
       for name, w in WORKLOADS.items()},
    # The largest stream pinned: 100k ops over a two-size value mixture.
    "bench/100k-mixture": _ops(WorkloadSpec(
        num_ops=100_000, num_keys=4096, value_length=512, seed=7,
        value_sizes=((256, 0.5), (4 * KB, 0.5))), seeds=(7,)),
}


def assert_pinned(case):
    seeds, make = STREAMS[case]
    for seed in seeds:
        for ci in (0, 1):
            key = f"{case} seed={seed} client={ci}"
            got = stream_digest(make(seed, ci))
            assert got == PINS.get(key), f"stream moved: {key!r}: {got}"


def test_every_pin_has_a_stream():
    assert {key.split(" seed=")[0] for key in PINS} == set(STREAMS)


@pytest.mark.parametrize("case", [c for c in STREAMS
                                  if c.startswith(("fig", "kvbench", "bench"))])
def test_figure_and_kvbench_streams_match_pins(case):
    assert_pinned(case)


class TestGenerateOpsEquivalence:
    @pytest.mark.parametrize("pattern", ["basic", "counter", "ttl-churn",
                                         "hot-storm"])
    @pytest.mark.parametrize("distribution", ["zipf", "uniform"])
    def test_patterns_match_reference(self, pattern, distribution):
        assert_pinned(f"pattern/{pattern}/{distribution}")

    def test_stream_offset_and_size_mixture(self):
        assert_pinned("size-mixture/offset=13")

    def test_read_fraction_extremes(self):
        assert_pinned("read-fraction/0.0")
        assert_pinned("read-fraction/1.0")


class TestGenerateYcsbEquivalence:
    @pytest.mark.parametrize("name", sorted(CORE_WORKLOADS))
    def test_core_workloads_match_reference(self, name):
        assert_pinned(f"ycsb/{name}")

    def test_latest_without_inserts_hits_fast_path(self):
        assert_pinned("ycsb/latest-no-insert")


class TestHotStorm:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_ops=10, num_keys=8, value_length=8,
                         pattern="hot-storm", storm_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(num_ops=10, num_keys=8, value_length=8,
                         pattern="hot-storm", storm_phase_ops=0)

    def test_storm_concentrates_on_shared_key_per_phase(self):
        spec = WorkloadSpec(num_ops=400, num_keys=512, value_length=64,
                            seed=9, pattern="hot-storm",
                            storm_fraction=0.5, storm_phase_ops=100)
        streams = [generate_ops(spec, client_index=i) for i in range(3)]
        # Within each phase there is one storm key, identical across
        # clients, and it absorbs roughly storm_fraction of the ops.
        for phase in range(4):
            sl = slice(phase * 100, (phase + 1) * 100)
            top = []
            for ops in streams:
                keys = [op.key for op in ops[sl]]
                hot, count = max(((k, keys.count(k)) for k in set(keys)),
                                 key=lambda kv: kv[1])
                assert count >= 30  # ~50 expected of 100
                top.append(hot)
            assert len(set(top)) == 1, "clients must mob the same key"

    def test_storm_key_rotates_between_phases(self):
        spec = WorkloadSpec(num_ops=600, num_keys=4096, value_length=64,
                            seed=21, pattern="hot-storm",
                            storm_fraction=0.6, storm_phase_ops=200)
        ops = generate_ops(spec)
        hot_keys = []
        for phase in range(3):
            keys = [op.key for op in ops[phase * 200:(phase + 1) * 200]]
            hot_keys.append(max(set(keys), key=keys.count))
        assert len(set(hot_keys)) > 1, "storm key should rotate"

    def test_zero_storm_fraction_is_basic(self):
        base = WorkloadSpec(num_ops=200, num_keys=64, value_length=64,
                            seed=4)
        storm = WorkloadSpec(num_ops=200, num_keys=64, value_length=64,
                             seed=4, pattern="hot-storm",
                             storm_fraction=0.0)
        assert generate_ops(storm) == generate_ops(base)


class TestBulkKeyMaterialization:
    def test_keys_for_matches_scalar_key(self):
        ks = Keyspace(100)
        idx = np.array([3, 97, 3, 0, 42, 97])
        assert ks.keys_for(idx) == [ks.key(int(i)) for i in idx]

    def test_keys_for_bounds(self):
        ks = Keyspace(10)
        with pytest.raises(IndexError):
            ks.keys_for(np.array([0, 10]))
        with pytest.raises(IndexError):
            ks.keys_for(np.array([-1, 3]))
        assert ks.keys_for(np.array([], dtype=np.int64)) == []

    def test_make_dataset_unchanged(self):
        spec = WorkloadSpec(num_ops=10, num_keys=16, value_length=128,
                            seed=2, value_sizes=((64, 0.5), (256, 0.5)))
        ks = Keyspace(16)
        data = make_dataset(spec)
        assert [k for k, _ in data] == [ks.key(i) for i in range(16)]
        assert all(v in (64, 256) for _, v in data)


class TestSlots:
    def test_hot_dataclasses_have_no_dict(self):
        op = Op("get", b"k", 8)
        assert not hasattr(op, "__dict__")
        from repro.client.request import OpRecord, ReqResult
        rr = ReqResult(op="get", api="get", status="HIT", value_length=8,
                       latency=1e-6, blocked_time=0.0)
        assert not hasattr(rr, "__dict__")
        assert rr.ok and rr.hit
        rec = OpRecord(op="get", api="get", key_length=1, value_length=8,
                       status="HIT", t_issue=0.0, t_complete=1e-6,
                       blocked_time=0.0)
        assert not hasattr(rec, "__dict__")
        from repro.consistency.history import HistoryEvent
        ev = HistoryEvent(client="c0", req_id=1, op="get", api="get",
                          key="k", status="HIT", cas_token=0,
                          value_length=8, t_issue=0.0, t_complete=1.0,
                          server=0, user=True)
        assert not hasattr(ev, "__dict__")

    def test_op_still_pickles(self):
        op = Op("scan", b"key:0", 64, keys=(b"key:0", b"key:1"))
        assert pickle.loads(pickle.dumps(op)) == op

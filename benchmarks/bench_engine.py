"""Substrate performance: how fast does the simulator itself run?

Not a paper figure — these benchmark the library's own event-processing
throughput so regressions in the hot path (heap churn, process resume,
store dispatch) are visible. Unlike the figure benches these use
several rounds, since they measure wall time, not simulated results.
"""

import pytest

from repro.sim import Simulator, Store
from repro.units import KB, MB


def test_engine_timeout_throughput(benchmark):
    """Raw event churn: 50k timeout events through the heap."""

    def run():
        sim = Simulator()

        def ticker(sim, n):
            for _ in range(n):
                yield sim.timeout(1e-6)

        for _ in range(10):
            sim.spawn(ticker(sim, 5_000))
        sim.run()
        return sim.now

    result = benchmark(run)
    assert result == pytest.approx(5_000 * 1e-6)


def test_store_producer_consumer_throughput(benchmark):
    """20k items through a bounded store with handoff blocking."""

    def run():
        sim = Simulator()
        store = Store(sim, capacity=32)
        n = 20_000

        def producer(sim):
            for i in range(n):
                yield store.put(i)

        def consumer(sim):
            total = 0
            for _ in range(n):
                total += yield store.get()
            return total

        sim.spawn(producer(sim))
        c = sim.spawn(consumer(sim))
        sim.run()
        return c.value

    total = benchmark(run)
    assert total == sum(range(20_000))


def test_opstream_generation_throughput(benchmark):
    """Vectorized op-stream generation (bulk numpy draws + batch key
    materialization) of a 100k-op stream, which must hash to the digest
    pinned in ``tests/golden/op_streams.json``."""
    from repro.workloads.generator import WorkloadSpec, generate_ops
    from tests.golden import load
    from tests.workloads.test_vectorized import stream_digest

    spec = WorkloadSpec(num_ops=100_000, num_keys=4096, value_length=512,
                        seed=7, value_sizes=((256, 0.5), (4 * KB, 0.5)))
    ops = benchmark(generate_ops, spec)
    assert len(ops) == 100_000
    pin = load("op_streams")["streams"]["bench/100k-mixture seed=7 client=0"]
    assert stream_digest(ops) == pin


def test_hot_object_churn(benchmark):
    """Allocation churn of the slotted per-op records (Op, ReqResult,
    OpRecord) — every simulated operation creates these, so their
    construction cost is pure hot-path overhead. ``__slots__`` keeps
    them dict-free; the assertion pins that."""
    from repro.client.request import OpRecord, ReqResult
    from repro.workloads.generator import Op

    def churn(n=50_000):
        key = b"key:0000000001"
        acc = 0
        for _ in range(n):
            op = Op("get", key, 512)
            res = ReqResult(op="get", api="get", status="HIT",
                            value_length=512, latency=1e-6,
                            blocked_time=0.0)
            rec = OpRecord(op="get", api="get", key_length=14,
                           value_length=512, status="HIT", t_issue=0.0,
                           t_complete=1e-6, blocked_time=0.0)
            acc += op.value_length + res.value_length + rec.value_length
        return acc

    total = benchmark(churn)
    assert total == 50_000 * 3 * 512
    assert not hasattr(Op("get", b"k", 1), "__dict__")


def test_full_stack_ops_per_second(benchmark):
    """End-to-end cost of one simulated Set/Get through every layer."""
    from repro import build_cluster, profiles

    def run():
        cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                                server_mem=16 * MB, ssd_limit=64 * MB)
        client = cluster.clients[0]
        sim = cluster.sim

        def app(sim):
            reqs = []
            for i in range(500):
                reqs.append((yield from client.iset(
                    f"k{i % 100}".encode(), 8 * KB)))
            yield from client.wait_all(reqs)
            for i in range(500):
                yield from client.get(f"k{i % 100}".encode())

        sim.run(until=sim.spawn(app(sim)))
        return len(client.records)

    ops = benchmark(run)
    assert ops == 1000

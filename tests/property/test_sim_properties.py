"""Property-based tests for the simulation engine and workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.hashing import ModuloRouter, one_at_a_time
from repro.core import metrics
from repro.client.request import OpRecord
from repro.sim import Simulator, Store
from repro.workloads.distributions import ZipfSampler


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=50))
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []

    def proc(sim, d):
        yield sim.timeout(d)
        fired.append(sim.now)

    for d in delays:
        sim.spawn(proc(sim, d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=60))
def test_store_is_fifo_for_any_items(items):
    sim = Simulator()
    store = Store(sim)
    out = []

    def producer(sim):
        for it in items:
            yield store.put(it)

    def consumer(sim):
        for _ in items:
            out.append((yield store.get()))

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert out == items


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_one_at_a_time_is_32bit_and_stable(key):
    h = one_at_a_time(key)
    assert 0 <= h < 2 ** 32
    assert h == one_at_a_time(key)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=32),
       st.integers(min_value=1, max_value=16))
def test_router_in_range(key, n):
    assert 0 <= ModuloRouter(n).server_for(key) < n


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5000),
       st.floats(min_value=0.1, max_value=1.5),
       st.integers(min_value=0, max_value=1000))
def test_zipf_draws_always_in_range(num_keys, theta, seed):
    s = ZipfSampler(num_keys, theta=theta, seed=seed)
    draws = s.sample(200)
    assert draws.min() >= 0
    assert draws.max() < num_keys


@st.composite
def record_lists(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    recs = []
    for i in range(n):
        t0 = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
        dur = draw(st.floats(min_value=1e-9, max_value=10, allow_nan=False))
        blocked = draw(st.floats(min_value=0, max_value=dur,
                                 allow_nan=False))
        recs.append(OpRecord(op="get", api="get", key_length=8,
                             value_length=128, status="HIT", t_issue=t0,
                             t_complete=t0 + dur, blocked_time=blocked,
                             trace_id=i))
    return recs


def kept_traces(recs):
    """Each record's trace: a lookup, then the response prep, then the
    response in flight until completion."""
    out = []
    for r in recs:
        t0, dur = r.t_issue, r.latency
        spans = (("index.cache_check_load", t0, t0 + dur / 4),
                 ("server_cpu.response", t0 + dur / 4, t0 + dur / 2))
        out.append((r.trace_id, "get:ram", t0, r.t_complete, spans,
                    r.t_complete))
    return out


@settings(max_examples=60, deadline=None)
@given(record_lists())
def test_metric_bounds(recs):
    assert metrics.mean_latency(recs) > 0
    assert metrics.effective_latency(recs) > 0
    assert 0.0 <= metrics.overlap_percent(recs) <= 100.0
    assert metrics.throughput(recs) >= 0.0
    p50 = metrics.percentile_latency(recs, 50)
    p99 = metrics.percentile_latency(recs, 99)
    assert p50 <= p99
    bd = metrics.stage_breakdown(recs, kept_traces(recs))
    assert all(v >= 0 for v in bd.values())

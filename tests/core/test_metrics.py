"""Tests for metric aggregation."""

import pytest

from repro.client.request import OpRecord
from repro.core import metrics


def rec(op="get", status="HIT", t0=0.0, t1=1.0, blocked=1.0,
        miss_penalty=None, api="get", trace_id=None):
    return OpRecord(op=op, api=api, key_length=10, value_length=100,
                    status=status, t_issue=t0, t_complete=t1,
                    blocked_time=blocked, miss_penalty=miss_penalty,
                    trace_id=trace_id)


def kept(trace_id, spans, t_response):
    """A profiler's kept-trace tuple (class and window do not matter)."""
    return (trace_id, "set:ram", 0.0, 1.0, tuple(spans), t_response)


class TestLatency:
    def test_mean(self):
        rs = [rec(t0=0, t1=1), rec(t0=0, t1=3)]
        assert metrics.mean_latency(rs) == pytest.approx(2.0)
        assert metrics.mean_latency([]) == 0.0

    def test_percentile(self):
        rs = [rec(t0=0, t1=i + 1) for i in range(100)]
        assert metrics.percentile_latency(rs, 50) == pytest.approx(50.0)
        assert metrics.percentile_latency(rs, 99) == pytest.approx(99.0)
        assert metrics.percentile_latency(rs, 100) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            metrics.percentile_latency(rs, 101)

    def test_effective_latency_is_span_over_count(self):
        rs = [rec(t0=0, t1=10), rec(t0=1, t1=2), rec(t0=2, t1=4)]
        assert metrics.effective_latency(rs) == pytest.approx(10 / 3)

    def test_effective_equals_mean_for_back_to_back_blocking(self):
        rs = [rec(t0=0, t1=1), rec(t0=1, t1=2), rec(t0=2, t1=3)]
        assert metrics.effective_latency(rs) == pytest.approx(
            metrics.mean_latency(rs))


class TestOverlap:
    def test_fully_blocked_is_zero(self):
        rs = [rec(blocked=1.0)]
        assert metrics.overlap_percent(rs) == pytest.approx(0.0)

    def test_never_blocked_is_hundred(self):
        rs = [rec(blocked=0.0)]
        assert metrics.overlap_percent(rs) == pytest.approx(100.0)

    def test_mixed(self):
        rs = [rec(blocked=0.25)]
        assert metrics.overlap_percent(rs) == pytest.approx(75.0)


class TestThroughput:
    def test_ops_over_span(self):
        rs = [rec(t0=0, t1=1), rec(t0=0.5, t1=2)]
        assert metrics.throughput(rs) == pytest.approx(1.0)

    def test_empty(self):
        assert metrics.throughput([]) == 0.0


class TestBreakdown:
    def test_stage_averages(self):
        rs = [rec(op="set", trace_id=0, blocked=1.0),
              rec(op="set", trace_id=1, blocked=1.0)]
        traces = [
            kept(0, [("index.slab_alloc", 0.1, 0.2),
                     ("server_cpu.response", 0.2, 0.3)], 0.4),
            # Flush I/O under the slab allocation counts toward it too.
            kept(1, [("index.slab_alloc", 0.1, 0.2),
                     ("ssd.slab_alloc", 0.2, 0.4),
                     ("server_cpu.response", 0.4, 0.5)], 0.6),
        ]
        bd = metrics.stage_breakdown(rs, traces)
        assert bd["slab_alloc"] == pytest.approx(0.2)
        assert bd["server_response"] == pytest.approx(0.1)
        # residual: blocked (1.0) minus attributed (0.2 + 0.1 avg)
        assert bd["client_wait"] == pytest.approx(0.7)

    def test_get_stages_and_miss_penalty(self):
        rs = [rec(trace_id=7, blocked=1.0, miss_penalty=0.25)]
        traces = [kept(7, [("index.cache_check_load", 0.0, 0.1),
                           ("ram.cache_check_load", 0.1, 0.15),
                           ("ssd.io", 0.1, 0.15),
                           ("index.cache_update", 0.15, 0.2),
                           ("server_cpu.response", 0.2, 0.3)], 0.35)]
        bd = metrics.stage_breakdown(rs, traces)
        assert bd["cache_check_load"] == pytest.approx(0.15)
        assert bd["cache_update"] == pytest.approx(0.05)
        assert bd["server_response"] == pytest.approx(0.05)
        assert bd["miss_penalty"] == 0.25
        assert bd["client_wait"] == pytest.approx(1.0 - 0.5)

    def test_replica_spans_and_unrecorded_traces_do_not_count(self):
        rs = [rec(op="set", trace_id=0, blocked=0.0)]
        traces = [kept(0, [("index.slab_alloc", 0.0, 0.1),
                           ("replica.index.slab_alloc", 0.1, 0.5),
                           ("server_cpu.response", 0.1, 0.2)], 0.2),
                  # The miss path's repopulating SET: traced, no record.
                  kept(1, [("index.slab_alloc", 0.0, 9.0)], 9.0)]
        bd = metrics.stage_breakdown(rs, traces)
        assert bd["slab_alloc"] == pytest.approx(0.1)
        assert bd["server_response"] == 0.0

    def test_no_response_means_no_server_stages(self):
        rs = [rec(status="SERVER_DOWN", trace_id=0, blocked=1.0,
                  miss_penalty=0.0)]
        traces = [kept(0, [("index.cache_check_load", 0.0, 0.1)], None)]
        bd = metrics.stage_breakdown(rs, traces)
        assert bd["cache_check_load"] == 0.0
        assert bd["client_wait"] == 1.0

    def test_all_keys_present(self):
        bd = metrics.stage_breakdown([], [])
        assert set(bd) == set(metrics.STAGE_KEYS)

    def test_client_wait_clamped_nonnegative(self):
        rs = [rec(op="set", trace_id=0, blocked=0.1)]
        traces = [kept(0, [("index.slab_alloc", 0.0, 5.0)], 5.0)]
        assert metrics.stage_breakdown(rs, traces)["client_wait"] == 0.0

    def test_an_unprofiled_record_is_an_error(self):
        with pytest.raises(ValueError, match="profile every request"):
            metrics.stage_breakdown([rec()], [])


class TestMissRateAndFilters:
    def test_miss_rate(self):
        rs = [rec(status="HIT"), rec(status="MISS"),
              rec(op="set", status="STORED", api="set")]
        assert metrics.miss_rate(rs) == pytest.approx(0.5)

    def test_a_fetched_get_is_a_miss_whatever_its_penalty(self):
        rs = [rec(status="SERVER_DOWN", miss_penalty=0.0),
              rec(status="SERVER_DOWN"), rec(status="HIT")]
        assert metrics.miss_rate(rs) == pytest.approx(1 / 3)
        assert metrics.summarize(rs)["miss_rate"] == pytest.approx(1 / 3)

    def test_miss_rate_no_gets(self):
        assert metrics.miss_rate([rec(op="set", status="STORED")]) == 0.0

    def test_filters(self):
        rs = [rec(op="get"), rec(op="set", status="STORED", api="set")]
        assert len(metrics.filter_records(rs, op="get")) == 1
        assert len(metrics.filter_records(rs, status="HIT")) == 1

    def test_summarize_keys(self):
        s = metrics.summarize([rec()])
        for key in ("ops", "mean_latency", "effective_latency",
                    "p99_latency", "throughput", "overlap_pct",
                    "miss_rate", "mean_blocked"):
            assert key in s


def per_metric_summary(rs):
    """What summarize() computed before it became one pass."""
    return {
        "ops": float(len(rs)),
        "mean_latency": metrics.mean_latency(rs),
        "effective_latency": metrics.effective_latency(rs),
        "p50_latency": metrics.percentile_latency(rs, 50),
        "p95_latency": metrics.percentile_latency(rs, 95),
        "p99_latency": metrics.percentile_latency(rs, 99),
        "throughput": metrics.throughput(rs),
        "overlap_pct": metrics.overlap_percent(rs),
        "miss_rate": metrics.miss_rate(rs),
        "mean_blocked": metrics.mean_blocked(rs),
    }


class TestSummarizeIsThePerMetricFunctions:
    def mixed(self):
        # Irregular floats, zero-length ops, misses by status and by
        # penalty, and sets: every branch of every metric.
        rs = []
        for i in range(257):
            t0 = i * 0.37e-6 + (i % 7) * 1.1e-7
            life = 0.0 if i % 31 == 0 else (3.3 + (i * 7919) % 101) * 1e-6
            op = "set" if i % 3 == 0 else "get"
            status = ("STORED" if op == "set"
                      else "MISS" if i % 11 == 0 else "HIT")
            penalty = (2e-3 if i % 13 == 1 else 0.0 if i % 17 == 2
                       else None)
            rs.append(rec(op=op, status=status, t0=t0, t1=t0 + life,
                          blocked=life * ((i % 5) / 4.0) + (i % 2) * 1e-7,
                          miss_penalty=penalty, api=op))
        return rs

    def test_mixed_records_bit_identical(self):
        rs = self.mixed()
        want = per_metric_summary(rs)
        assert metrics.summarize(rs) == want
        span = (max(r.t_complete for r in rs) - min(r.t_issue for r in rs))
        assert metrics.summarize(rs, span=span) == want

    def test_empty(self):
        assert metrics.summarize([]) == per_metric_summary([])

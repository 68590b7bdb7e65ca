"""Metric aggregation over per-operation records.

Implements the measurement definitions of DESIGN.md §6:

* **mean/percentile latency** over blocking operations;
* **effective latency** for non-blocking runs: issue-to-drain span
  divided by the number of operations (how the paper's modified
  micro-benchmark reports non-blocking Set/Get latency);
* **six-stage breakdown** (Section III-A): a fold over a profiled
  run's causal-profile spans, plus the records' *miss penalty* and the
  derived *client wait* residual;
* **overlap%** (Figure 7a): average share of an operation's lifetime
  during which the client was not blocked in a client API call;
* **throughput** in operations/second across many clients (Figure 7c).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.client.request import OpRecord
from repro.obs.buckets import bucket_index, log_bounds

#: Stage keys in presentation order (Figure 2 legend).
STAGE_KEYS = (
    "slab_alloc",
    "cache_check_load",
    "cache_update",
    "server_response",
    "client_wait",
    "miss_penalty",
)


def filter_records(records: Iterable[OpRecord], op: Optional[str] = None,
                   status: Optional[str] = None) -> List[OpRecord]:
    out = []
    for r in records:
        if op is not None and r.op != op:
            continue
        if status is not None and r.status != status:
            continue
        out.append(r)
    return out


def mean_latency(records: Sequence[OpRecord]) -> float:
    if not records:
        return 0.0
    return sum(r.latency for r in records) / len(records)


def percentile_latency(records: Sequence[OpRecord], q: float) -> float:
    """q in [0, 100]; nearest-rank percentile."""
    if not records:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    lat = sorted(r.latency for r in records)
    rank = max(1, math.ceil(q / 100 * len(lat)))
    return lat[rank - 1]


def effective_latency(records: Sequence[OpRecord]) -> float:
    """Pipelined per-op latency: total span / op count.

    For blocking single-client runs this equals the mean latency (ops
    are back-to-back); for windowed non-blocking runs it is the latency
    the application actually experiences per operation.
    """
    if not records:
        return 0.0
    start = min(r.t_issue for r in records)
    end = max(r.t_complete for r in records)
    return (end - start) / len(records)


def mean_blocked(records: Sequence[OpRecord]) -> float:
    if not records:
        return 0.0
    return sum(r.blocked_time for r in records) / len(records)


def overlap_percent(records: Sequence[OpRecord]) -> float:
    """Average of per-op overlap fractions, as a percentage."""
    if not records:
        return 0.0
    return 100.0 * sum(r.overlap_fraction for r in records) / len(records)


def throughput(records: Sequence[OpRecord]) -> float:
    """Completed operations per second over the records' active span."""
    if not records:
        return 0.0
    start = min(r.t_issue for r in records)
    end = max(r.t_complete for r in records)
    span = end - start
    if span <= 0:
        return 0.0
    return len(records) / span


def stage_breakdown(records: Sequence[OpRecord],
                    traces: Iterable[tuple]) -> Dict[str, float]:
    """Average per-op time in each of the paper's six stages (seconds).

    A fold over a profiled run (``ClusterSpec(profile=True,
    profile_keep_traces=True)``) whose profiler's ``traces`` hold every
    record's ``trace_id``. Server stages sum the handlers' dotted spans
    (``index.slab_alloc`` ...) of an op that took its response, and
    ``server_response`` runs from the end of ``server_cpu.response`` to
    that instant. *Client wait* is the residual blocking time not
    attributable to those or the record's miss penalty — for blocking
    APIs it is dominated by request transmission and server queueing;
    for non-blocking APIs it is near zero.
    """
    out = dict.fromkeys(STAGE_KEYS, 0.0)
    kept = {t[0]: t for t in traces}
    for r in records:  # not the miss path's repopulating SET: no record
        if r.trace_id not in kept:
            raise ValueError(f"no kept trace for {r.op} issued at "
                             f"{r.t_issue}: profile every request")
        *_, spans, t_response = kept[r.trace_id]
        op_stages = dict.fromkeys(STAGE_KEYS[:4], 0.0)
        if t_response is not None:
            sent = t_response
            for name, t0, t1 in spans:
                stage = name.partition(".")[2]
                if stage in op_stages:
                    op_stages[stage] += t1 - t0
                elif name == "server_cpu.response" and t1 <= t_response:
                    sent = t1  # a retried op took the last one sent
            op_stages["server_response"] = t_response - sent
        op_stages["miss_penalty"] = r.miss_penalty or 0.0
        attributed = 0.0
        for k, v in op_stages.items():
            out[k] += v
            attributed += v
        out["client_wait"] += max(0.0, r.blocked_time - attributed)
    return {k: v / len(records) for k, v in out.items()} if records else out


def server_distribution(records: Sequence[OpRecord]) -> Dict[int, int]:
    """Operations per server index (key-routing balance check)."""
    out: Dict[int, int] = {}
    for r in records:
        out[r.server_index] = out.get(r.server_index, 0) + 1
    return out


def load_imbalance(records: Sequence[OpRecord]) -> float:
    """max/mean per-server op count (1.0 = perfectly balanced)."""
    dist = server_distribution(records)
    if not dist:
        return 0.0
    mean = sum(dist.values()) / len(dist)
    return max(dist.values()) / mean if mean else 0.0


def miss_rate(records: Sequence[OpRecord]) -> float:
    gets = filter_records(records, op="get")
    if not gets:
        return 0.0
    misses = sum(1 for r in gets
                 if r.miss_penalty is not None or r.status == "MISS")
    return misses / len(gets)


def latency_histogram(records: Sequence[OpRecord],
                      buckets: int = 16) -> List[tuple]:
    """Log-spaced latency histogram: [(upper_bound_seconds, count)].

    Log spacing suits latency's heavy tail (a miss is 100x a hit).
    Bucket placement bisects over the precomputed bounds — O(log b) per
    record instead of a linear bound scan (the same machinery backs
    :class:`repro.obs.Histogram`).
    """
    if buckets < 1:
        raise ValueError("need at least one bucket")
    lats = [r.latency for r in records if r.latency > 0]
    if not lats:
        return []
    lo, hi = min(lats), max(lats)
    if lo == hi:
        return [(hi, len(lats))]
    bounds = log_bounds(lo, hi, buckets)
    counts = [0] * buckets
    for lat in lats:
        counts[bucket_index(bounds, lat)] += 1
    return list(zip(bounds, counts))


def latency_cdf(records: Sequence[OpRecord],
                points: Sequence[float] = (50, 90, 95, 99, 99.9),
                ) -> Dict[float, float]:
    """Latency at the given percentiles, as {percentile: seconds}."""
    return {q: percentile_latency(records, min(q, 100.0)) for q in points}


def summarize(records: Sequence[OpRecord],
              span: Optional[float] = None) -> Dict[str, float]:
    """One-look summary used by the harness report tables.

    Each entry equals its per-metric function above, bit for bit, but
    the records are walked once and the latencies sorted once: this
    runs inside every timed ``run_streams``. ``span`` is the records'
    first-issue-to-last-completion time when the caller already has it.
    """
    n = len(records)
    if not n:
        return dict.fromkeys(
            ("ops", "mean_latency", "effective_latency", "p50_latency",
             "p95_latency", "p99_latency", "throughput", "overlap_pct",
             "miss_rate", "mean_blocked"), 0.0)
    if span is None:
        span = (max(r.t_complete for r in records)
                - min(r.t_issue for r in records))
    lats: List[float] = []
    blocked: List[float] = []
    overlaps: List[float] = []
    gets = misses = 0
    for r in records:
        lat = r.t_complete - r.t_issue
        b = r.blocked_time
        lats.append(lat)
        blocked.append(b)
        overlaps.append(max(0.0, 1.0 - b / lat) if lat > 0 else 0.0)
        if r.op == "get":
            gets += 1
            if r.miss_penalty is not None or r.status == "MISS":
                misses += 1
    ordered = sorted(lats)

    def pct(q: float) -> float:
        return ordered[max(1, math.ceil(q / 100 * n)) - 1]

    return {
        "ops": float(n),
        # sum() over lists in record order, as the functions above do.
        "mean_latency": sum(lats) / n,
        "effective_latency": span / n,
        "p50_latency": pct(50),
        "p95_latency": pct(95),
        "p99_latency": pct(99),
        "throughput": n / span if span > 0 else 0.0,
        "overlap_pct": 100.0 * sum(overlaps) / n,
        "miss_rate": misses / gets if gets else 0.0,
        "mean_blocked": sum(blocked) / n,
    }

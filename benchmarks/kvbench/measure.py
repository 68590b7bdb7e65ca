"""The run shape every workload shares.

Closed loop. A :class:`Session` builds the cluster, preloads the whole
keyspace and runs two discarded warm-up segments (together with the
imports: ``setup_s``). Measured segments then run a *fixed op count*
each on that same cluster through ``RunConfig.run_streams``. Fixed
counts, never a wall-clock timer, keep every simulated number a pure
function of ``--seed``. Streams are generated and garbage is collected
outside the timed region; every record is checked against the op that
produced it.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.metrics import server_distribution
from repro.workloads.generator import generate_ops, make_dataset

from .workloads import Workload, stream_offset

WARMUP_SEGMENTS = 2
#: Warm-up streams use segment indices no measured segment reaches.
WARMUP_INDEX = 1000

#: Harness-reset (per ``run_streams``) counters summed over servers.
_MANAGER_FIELDS = ("lookups", "ssd_reads", "flushes", "flushed_bytes", "ram_evictions",
                   "promotions", "dropped_items", "buffer_served_reads")
_DEVICE_FIELDS = ("reads", "writes", "bytes_read", "bytes_written", "busy_time")
#: Cumulative counters (the harness never resets them): read as deltas.
_PAGECACHE_FIELDS = ("hit_bytes", "miss_bytes", "writeback_ops", "throttle_events")


class Spans:
    """The benchmark's own spans, around its calls into each layer:
    name, start, end and the span that caused it, on the host clock
    (seconds since the process started). Kept in memory; written to
    ``kvbench-trace.json`` when a traced run ends."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.rows: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        row = {"id": len(self.rows), "parent": self._open[-1] if self._open else None,
               "name": name, "start_s": time.perf_counter() - self.t0, **attrs}
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            self._open.pop()
            row["end_s"] = time.perf_counter() - self.t0


def _duration(row: dict) -> float:
    return row["end_s"] - row["start_s"]


@dataclass
class Segment:
    """What one ``run_streams`` call on the persistent cluster produced."""

    ops: int
    started: float  # host seconds from process start to the timed call
    wall: float  # host seconds inside run_streams
    gen: float  # host seconds generating the streams
    events: int  # simulator events processed
    span: float  # simulated seconds, first issue to last completion
    latency_sum: float  # simulated seconds, in record order (fingerprint)
    get_lat: np.ndarray
    set_lat: np.ndarray
    failed: int
    counters: Dict[str, float]
    per_server: Dict[int, int]
    profile: Optional[object] = None  # ProfileReport when profile=True
    errors: List[str] = field(default_factory=list)

    @property
    def fingerprint(self):
        return (self.ops, self.events, self.latency_sum)


class Session:
    """One workload's cluster: built, preloaded, warmed, ready for
    measured segments."""

    def __init__(self, workload: Workload, seed: int, spans: Spans,
                 ops_scale: float = 1.0, **cluster_overrides):
        self.workload = workload
        self.spans = spans
        self.seed = seed
        self.cfg = workload.run_config(ops_scale, **cluster_overrides)
        self.spec = self.cfg.workload
        with spans.span("kvbench.setup", workload=workload.name):
            with spans.span("core.build") as row:
                self.cluster = self.cfg.build()
            self.build_s = _duration(row)
            with spans.span("core.preload") as row:
                self.cluster.preload(make_dataset(self.spec))
            self.preload_s = _duration(row)
            cspec = self.cluster.spec
            link = cspec.rdma_params if workload.profile.rdma else cspec.ipoib_params
            self.nics = [node.nic(link) for node in self.cluster.fabric.nodes.values()]
            for i in range(WARMUP_SEGMENTS):
                self.run_segment(WARMUP_INDEX + i)

    def _cumulative(self) -> Dict[str, float]:
        out = {"nic_msgs": sum(n.messages_sent for n in self.nics),
               "nic_bytes": sum(n.bytes_sent for n in self.nics)}
        caches = [s.manager.pagecache.stats for s in self.cluster.servers
                  if s.manager.pagecache is not None]
        for name in _PAGECACHE_FIELDS:
            out["pagecache_" + name] = sum(getattr(c, name) for c in caches)
        return out

    def run_segment(self, index: int, profiler=None) -> Segment:
        """Run one fixed-size segment; ``profiler`` (a ``cProfile``
        profile) is enabled around the timed call only."""
        cluster, spans = self.cluster, self.spans
        offset = stream_offset(self.seed, index)
        with spans.span("kvbench.segment", index=index):
            with spans.span("workloads.generate_ops") as gen_row:
                streams = [generate_ops(self.spec, client_index=i, stream_offset=offset)
                           for i in range(len(cluster.clients))]
            gc.collect()
            before = self._cumulative()
            events0 = cluster.sim.events_processed
            with spans.span("harness.run_streams") as run_row:
                if profiler is not None:
                    profiler.enable()
                t0 = time.perf_counter()
                result = self.cfg.run_streams(streams, cluster=cluster)
                wall = time.perf_counter() - t0
                if profiler is not None:
                    profiler.disable()
            run_row["wall_s"] = wall
            with spans.span("kvbench.check"):
                return self._reduce(streams, result, t0 - spans.t0, wall,
                                    _duration(gen_row),
                                    cluster.sim.events_processed - events0, before)

    def _reduce(self, streams, result, started, wall, gen, events,
                before) -> Segment:
        """Check every record against its op and fold the segment down
        to numbers, so no record outlives its segment."""
        cluster = self.cluster
        errors: List[str] = []
        get_lat: List[float] = []
        set_lat: List[float] = []
        failed = mismatched = wrong_length = 0
        latency_sum = blocked = overlap = 0.0
        user_bytes = set_bytes = 0
        for client, ops in zip(cluster.clients, streams):
            # Both harness drivers complete a client's ops in issue
            # order, so records pair with ops positionally.
            records = client.records
            if len(records) != len(ops):
                errors.append(f"{client.name}: {len(records)} records for "
                              f"{len(ops)} ops")
            for op, rec in zip(ops, records):
                lat = rec.t_complete - rec.t_issue
                latency_sum += lat
                blocked += rec.blocked_time
                overlap += rec.overlap_fraction
                user_bytes += rec.value_length
                if rec.op != op.kind or rec.key_length != len(op.key):
                    mismatched += 1
                if rec.value_length != op.value_length:
                    wrong_length += 1
                if op.kind == "get":
                    get_lat.append(lat)
                    # A MISS is a cache outcome, not a failure, provided
                    # the client fetched and repopulated the key.
                    if not (rec.status == "HIT" or (
                            rec.status == "MISS"
                            and rec.stages.get("miss_penalty", 0.0) > 0.0)):
                        failed += 1
                else:
                    set_lat.append(lat)
                    set_bytes += rec.value_length
                    if rec.status != "STORED":
                        failed += 1
        if mismatched:
            errors.append(f"{mismatched} records do not match the op issued")
        if wrong_length:
            errors.append(f"{wrong_length} records carry a value length other than "
                          "the spec's value_length_for(key)")
        ops_done = len(get_lat) + len(set_lat)
        if ops_done != len(result.records):
            errors.append(f"{len(result.records)} records returned, {ops_done} checked")

        counters = {k: v - before[k] for k, v in self._cumulative().items()}
        for name in _MANAGER_FIELDS:
            counters[name] = sum(getattr(s.manager.stats, name) for s in cluster.servers)
        counters["server_gets"] = sum(s.stats.gets for s in cluster.servers)
        counters["server_get_misses"] = sum(s.stats.get_misses for s in cluster.servers)
        counters["worker_busy"] = sum(s.stats.busy_time for s in cluster.servers)
        devices = [s.device.stats for s in cluster.servers if s.device is not None]
        for name in _DEVICE_FIELDS:
            counters["device_" + name] = sum(getattr(d, name) for d in devices)
        counters.update(blocked=blocked, overlap=overlap, user_bytes=user_bytes,
                        set_bytes=set_bytes)
        return Segment(ops=ops_done, started=started, wall=wall, gen=gen, events=events,
                       span=result.span, latency_sum=latency_sum,
                       get_lat=np.array(get_lat), set_lat=np.array(set_lat),
                       failed=failed, counters=counters,
                       per_server=server_distribution(result.records),
                       profile=result.profile, errors=errors)


def median_ops_per_s(segments: List[Segment]) -> float:
    return statistics.median(s.ops / s.wall for s in segments)


#: Percentiles are taken over latencies grouped into 10 ns classes and
#: interpolated inside the class: ``statistics.median_grouped``, for any
#: quantile. A blocking client on an uncontended path sees one constant
#: latency per value size, so on two workloads the nearest-rank median
#: is that constant to its last digit whatever the seed; the grouped
#: form also tells where inside the tie the quantile fell.
CLASS_WIDTH = 1e-8


def percentile(sorted_values: np.ndarray, q: float) -> float:
    rank = q / 100 * len(sorted_values)
    x = float(sorted_values[max(1, math.ceil(rank)) - 1])
    lower = math.floor(x / CLASS_WIDTH) * CLASS_WIDTH
    if lower > x:  # the division rounded up
        lower -= CLASS_WIDTH
    below = int(np.searchsorted(sorted_values, lower, side="left"))
    inside = int(np.searchsorted(sorted_values, lower + CLASS_WIDTH, side="left")) - below
    return lower + CLASS_WIDTH * (rank - below) / inside


def end_to_end(segments: List[Segment], setup_s: float, peak_rss_mb: float):
    """The end-to-end metrics, plus the sample notes printed beside them."""
    ops = sum(s.ops for s in segments)
    rates = sorted(s.ops / s.wall for s in segments)
    get = np.sort(np.concatenate([s.get_lat for s in segments]))
    sets = np.sort(np.concatenate([s.set_lat for s in segments]))
    metrics = {
        "host_ops_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "host_peak_rss_mb": peak_rss_mb,
        "sim_events_per_op": sum(s.events for s in segments) / ops,
        "sim_throughput_kops": ops / sum(s.span for s in segments) / 1e3,
        "sim_get_p50_us": percentile(get, 50) * 1e6,
        "sim_get_p99_us": percentile(get, 99) * 1e6,
        "sim_set_p50_us": percentile(sets, 50) * 1e6,
        "sim_set_p99_us": percentile(sets, 99) * 1e6,
    }
    q1, _, q3 = statistics.quantiles(rates, n=4)
    notes = [
        f"host_ops_per_s: iqr {q3 - q1:.0f} over n={len(rates)} segments, "
        f"measured phase {sum(s.wall for s in segments):.1f} s host time",
        f"sim_get_*: n={len(get)} GET samples; sim_set_*: n={len(sets)} SET samples",
    ]
    return metrics, notes, get, sets


def verify(workload: Workload, segments: List[Segment], metrics: Dict[str, float],
           get: np.ndarray, sets: np.ndarray) -> List[str]:
    """Output checks: any entry returned fails the run."""
    errors = [e for s in segments for e in s.errors]
    failed = sum(s.failed for s in segments)
    if failed:
        errors.append(f"fail_share {failed}/{sum(s.ops for s in segments)} is not 0")
    # Little's law: a closed loop cannot complete more than its
    # in-flight requests divided by their mean latency.
    mean_latency = (sum(s.latency_sum for s in segments)
                    / sum(s.ops for s in segments))
    ceiling = workload.concurrency / mean_latency / 1e3
    if metrics["sim_throughput_kops"] > ceiling * (1 + 1e-9):
        errors.append(f"sim_throughput_kops {metrics['sim_throughput_kops']:.1f} is "
                      f"above the Little's-law ceiling {ceiling:.1f}")
    for kind, lat in (("get", get), ("set", sets)):
        p50, p99 = metrics[f"sim_{kind}_p50_us"], metrics[f"sim_{kind}_p99_us"]
        if not p99 > p50:
            errors.append(f"degenerate {kind} latency: p99 {p99} <= p50 {p50}")
        distinct = len(np.unique(np.round(lat * 1e9)))
        if distinct < min(100, len(lat) // 10):  # --smoke has few samples
            errors.append(f"degenerate {kind} latency: {distinct} distinct values")
    return errors


def run_untraced(workload: Workload, seed: int, spans: Spans, segments: int,
                 ops_scale: float = 1.0, **cluster_overrides):
    """One untraced run of a workload: ``(metrics, notes, errors,
    attempted, failed)``. ``setup_s`` counts from ``spans.t0``."""
    session = Session(workload, seed, spans, ops_scale, **cluster_overrides)
    segs = [session.run_segment(i) for i in range(segments)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, notes, get, sets = end_to_end(segs, segs[0].started, peak_rss_mb)
    errors = verify(workload, segs, metrics, get, sets)
    return (metrics, notes, errors, sum(s.ops for s in segs),
            sum(s.failed for s in segs))


def layer_counters(workload: Workload, session: Session,
                   segments: List[Segment]) -> Dict[str, float]:
    """The per-layer counters: sums over servers and NICs across the
    given segments as ratios to the work done (exact for a seed), and
    the session's set-up costs on the host clock."""
    total: Dict[str, float] = {}
    for seg in segments:
        for k, v in seg.counters.items():
            total[k] = total.get(k, 0.0) + v
    ops = sum(s.ops for s in segments)
    kops = ops / 1e3
    span = sum(s.span for s in segments)
    cspec = session.cluster.spec

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    per_server: Dict[int, int] = {}
    for seg in segments:
        for idx, n in seg.per_server.items():
            per_server[idx] = per_server.get(idx, 0) + n
    device_bytes = total["device_bytes_read"] + total["device_bytes_written"]
    cached = total["pagecache_hit_bytes"] + total["pagecache_miss_bytes"]
    return {
        "net.msgs_per_op": total["nic_msgs"] / ops,
        "net.bytes_per_op": total["nic_bytes"] / ops,
        "server.ssd_read_ratio": ratio(total["ssd_reads"], total["lookups"]),
        "server.flushes_per_kop": total["flushes"] / kops,
        "server.flush_bytes_per_set_byte": ratio(total["flushed_bytes"],
                                                 total["set_bytes"]),
        "server.ram_evictions_per_kop": total["ram_evictions"] / kops,
        "server.promotions_per_kop": total["promotions"] / kops,
        "server.dropped_items_per_kop": total["dropped_items"] / kops,
        "server.buffer_served_reads_per_kop": total["buffer_served_reads"] / kops,
        "server.get_miss_ratio": ratio(total["server_get_misses"], total["server_gets"]),
        "server.worker_busy_share": total["worker_busy"] / (
            workload.servers * cspec.worker_threads * span),
        "storage.device_reads_per_kop": total["device_reads"] / kops,
        "storage.device_writes_per_kop": total["device_writes"] / kops,
        "storage.device_bytes_per_user_byte": ratio(device_bytes, total["user_bytes"]),
        "storage.device_busy_share": total["device_busy_time"] / (
            workload.servers * cspec.device.parallelism * span),
        "storage.pagecache_hit_ratio": ratio(total["pagecache_hit_bytes"], cached),
        "storage.writeback_ops_per_kop": total["pagecache_writeback_ops"] / kops,
        "storage.throttle_events_per_kop": total["pagecache_throttle_events"] / kops,
        "client.overlap_pct": 100.0 * total["overlap"] / ops,
        "client.mean_blocked_us": total["blocked"] / ops * 1e6,
        "client.load_imbalance": max(per_server.values()) * len(per_server) / ops,
        "core.build_s": session.build_s,
        "core.build_us_per_conn": session.build_s * 1e6 / (
            workload.servers * workload.clients),
        "core.preload_s": session.preload_s,
        "workloads.gen_us_per_op": sum(s.gen for s in segments) / ops * 1e6,
    }

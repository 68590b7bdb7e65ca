"""End-to-end observability acceptance: parity + snapshot completeness.

The ISSUE's acceptance criteria: a benchmark run with tracing enabled
must produce a valid Chrome trace and a registry snapshot containing
per-device read/write counts and queue-depth series, per-worker busy
fraction, eviction/flush counters, NIC bytes, and client
window-occupancy series — while reporting latency/throughput
byte-identical to the same run with observability disabled.
"""

import json

from repro import profiles
from repro.core.cluster import ClusterSpec
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig
from repro.obs.export import chrome_trace
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec


#: Working set ~2x server memory => SSD flushes, reads, promotions.
WORKLOAD = WorkloadSpec(num_ops=250, num_keys=800, value_length=16 * KB,
                        read_fraction=0.5, distribution="zipf", seed=7)


def _run(observe: bool, trace: bool):
    spec = ClusterSpec(topology=TopologyConfig(initial_servers=1),
                       num_clients=2, server_mem=8 * MB,
                       ssd_limit=64 * MB, observe=observe, trace=trace)
    cfg = RunConfig(profile=profiles.H_RDMA_OPT_NONB_B, workload=WORKLOAD,
                    cluster=spec)
    cluster = cfg.build()
    return cluster, cfg.run(cluster)


def test_observed_run_matches_unobserved_run_exactly():
    _, base = _run(observe=False, trace=False)
    _, obs = _run(observe=True, trace=True)
    # Byte-identical measurements: observability must not perturb the sim.
    assert obs.summary == base.summary
    assert [r.t_complete for r in obs.records] == \
           [r.t_complete for r in base.records]
    assert base.obs is None
    assert obs.obs is not None


def test_snapshot_contains_all_required_signals():
    cluster, result = _run(observe=True, trace=True)
    snap = cluster.obs.snapshot()
    counters, gauges, series = (snap["counters"], snap["gauges"],
                                snap["series"])

    # Per-device read/write counts (and the device actually worked).
    assert counters['device_reads{device="server0-ssd"}'] > 0
    assert counters['device_writes{device="server0-ssd"}'] > 0
    # Queue-depth series sampled over time.
    depth_series = series['device_queue_depth{device="server0-ssd"}']
    assert len(depth_series) > 10
    assert any(v > 0 for _, v in depth_series)

    # Per-worker busy fraction in (0, 1].
    busy = {k: v for k, v in gauges.items()
            if k.startswith("worker_busy_fraction")}
    assert len(busy) == cluster.servers[0].config.worker_threads
    assert any(0 < v <= 1 for v in busy.values())

    # Eviction/flush counters mirror the slab manager's accounting.
    m = cluster.servers[0].manager.stats
    assert counters['slab_flushes{server="server0"}'] == m.flushes
    assert counters['slab_flushed_bytes{server="server0"}'] == m.flushed_bytes
    assert counters['ssd_reads{server="server0"}'] == m.ssd_reads
    assert m.flushes > 0

    # NIC bytes by node and link.
    nic_bytes = {k: v for k, v in counters.items()
                 if k.startswith("nic_bytes_sent")}
    assert nic_bytes and sum(nic_bytes.values()) > 0
    total_nic = sum(n.bytes_sent for node in cluster.fabric.nodes.values()
                    for n in node._nics.values())
    assert sum(nic_bytes.values()) == total_nic

    # Client window-occupancy series.
    for client in cluster.clients:
        win = series[f'client_window{{client="{client.name}"}}']
        assert any(v > 0 for _, v in win)

    # Slab-class free-slot gauges exist.
    assert any(k.startswith("slab_free_chunks") for k in gauges)

    # Snapshot is taken at the (post-run) sim time.
    assert snap["time"] > 0


def test_chrome_trace_is_valid_and_covers_all_layers(tmp_path):
    cluster, _ = _run(observe=True, trace=True)
    path = chrome_trace(cluster.obs.tracer, tmp_path / "run.trace.json")
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert events
    pids = {e["pid"] for e in events}
    assert {"sim", "net", "storage", "server", "client"} <= pids
    # Async begin/end pairs balance per id.
    opened = {}
    for ev in events:
        if ev["ph"] == "b":
            opened[ev["id"]] = opened.get(ev["id"], 0) + 1
        elif ev["ph"] == "e":
            opened[ev["id"]] -= 1
    assert all(v == 0 for v in opened.values())
    # Sync events carry non-negative durations; timestamps are µs.
    for ev in events:
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
        assert ev["ts"] >= 0


def test_counters_mirror_server_adhoc_stats():
    cluster, _ = _run(observe=True, trace=False)
    server = cluster.servers[0]
    snap = cluster.obs.snapshot()
    c = snap["counters"]
    assert c['cmd_set{server="server0"}'] == server.stats.sets
    assert c['cmd_get{server="server0"}'] == server.stats.gets
    assert c['get_hits{server="server0"}'] == server.stats.get_hits
    assert c['get_misses{server="server0"}'] == server.stats.get_misses
    assert (c['device_reads{device="server0-ssd"}']
            == server.device.stats.reads)
    assert (c['device_writes{device="server0-ssd"}']
            == server.device.stats.writes)

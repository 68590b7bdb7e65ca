"""Ablations of the design choices called out in DESIGN.md §5.

Not a paper figure: these isolate each proposed mechanism so its
individual contribution is visible (split-phase server, adaptive-I/O
cutoff, client pipeline window, victim-page selection).
"""

import dataclasses

from repro.core import metrics
from repro.core.cluster import ClusterSpec
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.harness.figures import (
    BASE_SERVER_MEM,
    BASE_SSD_LIMIT,
    ZIPF_THETA,
    _scaled_pagecache,
)
from repro.harness.report import ascii_table, fmt_us
from repro.harness.runner import RunConfig
from repro.units import KB
from repro.workloads.generator import WorkloadSpec

from benchmarks.conftest import BENCH_SCALE

OPS = 800


def nofit_spec(value=32 * KB, read_fraction=0.5):
    server_mem = BASE_SERVER_MEM // BENCH_SCALE
    return WorkloadSpec(num_ops=OPS,
                        num_keys=int(1.5 * server_mem) // value,
                        value_length=value, read_fraction=read_fraction,
                        distribution="zipf", theta=ZIPF_THETA, seed=1)


def run_variant(profile=H_RDMA_OPT_NONB_I, spec=None, window=64,
                **cluster_overrides):
    spec = spec or nofit_spec()
    overrides = dict(server_mem=BASE_SERVER_MEM // BENCH_SCALE,
                     ssd_limit=BASE_SSD_LIMIT // BENCH_SCALE,
                     pagecache=_scaled_pagecache(BENCH_SCALE))
    overrides.update(cluster_overrides)
    result = RunConfig(profile=profile, workload=spec, window=window,
                       cluster=ClusterSpec(
                           topology=TopologyConfig(initial_servers=1),
                           num_clients=1, **overrides)).run()
    return metrics.effective_latency(result.records)


def test_ablate_split_phase_server(benchmark):
    """Early buffered-acks vs holding credits until fully processed."""

    def run():
        with_ack = run_variant()
        no_ack_profile = dataclasses.replace(
            H_RDMA_OPT_NONB_I, key="ablate-no-early-ack", early_ack=False)
        without_ack = run_variant(profile=no_ack_profile)
        return with_ack, without_ack

    with_ack, without_ack = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table([
        {"variant": "split-phase (early ack)", "latency": fmt_us(with_ack)},
        {"variant": "credit held to completion",
         "latency": fmt_us(without_ack)},
    ], title="Ablation — split-phase server (NonB-i, nofit)"))
    benchmark.extra_info["early_ack_speedup"] = round(
        without_ack / with_ack, 2)
    # Holding credits throttles the pipelined client: must not be faster.
    assert with_ack <= without_ack * 1.05


def test_ablate_adaptive_cutoff(benchmark):
    """Sweep the mmap/cached class-size cutoff of the slab allocator."""

    cutoffs = (4 * KB, 32 * KB, 256 * KB)

    def run():
        return {c: run_variant(adaptive_cutoff=c) for c in cutoffs}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(
        [{"cutoff": f"{c // KB} KB", "latency": fmt_us(v)}
         for c, v in results.items()],
        title="Ablation — adaptive I/O cutoff (NonB-i, 32 KB values)"))
    for c, v in results.items():
        benchmark.extra_info[f"cutoff_{c // KB}KB_us"] = round(v * 1e6, 2)
    assert all(v > 0 for v in results.values())


def test_ablate_client_window(benchmark):
    """Pipeline depth of the non-blocking client."""

    windows = (1, 4, 16, 64)

    def run():
        return {w: run_variant(window=w) for w in windows}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(
        [{"window": w, "latency": fmt_us(v)} for w, v in results.items()],
        title="Ablation — non-blocking window size (NonB-i, nofit)"))
    benchmark.extra_info["window_1_over_64"] = round(
        results[1] / results[64], 2)
    # Window 1 degenerates to blocking behaviour; deep windows pipeline.
    assert results[64] < results[1]
    assert results[16] <= results[1]


def test_ablate_async_flush(benchmark):
    """Future-work extension (Sec VII): asynchronous SSD flushes.

    Compares the paper's synchronous eviction against staged background
    write-back, for both the direct-I/O (Def-style) and adaptive server,
    under a write-heavy non-blocking workload.
    """

    spec = nofit_spec(read_fraction=0.25)

    def run():
        return {
            "sync": run_variant(spec=spec),
            "async": run_variant(spec=spec, async_flush=True),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(
        [{"flush mode": k, "latency": fmt_us(v)}
         for k, v in results.items()],
        title="Ablation — asynchronous SSD I/O (NonB-i, write-heavy, "
              "nofit)"))
    benchmark.extra_info["async_speedup"] = round(
        results["sync"] / results["async"], 2)
    # Staging flushes must never be slower than blocking on the device.
    assert results["async"] <= results["sync"] * 1.05


def test_ablate_registration_cost(benchmark):
    """Section IV's motivation: registration cost vs buffer-reuse APIs.

    With cold registration caches, iset pins a windowful of buffers
    (many registrations) while bset's early reuse needs only a few —
    the b-variants trade overlap for registration economy.
    """

    from repro.client.client import ClientConfig
    from repro.core.profiles import H_RDMA_OPT_NONB_B

    def run(profile, api):
        spec = nofit_spec()
        cluster_overrides = dict(
            server_mem=BASE_SERVER_MEM // BENCH_SCALE,
            ssd_limit=BASE_SSD_LIMIT // BENCH_SCALE,
            pagecache=_scaled_pagecache(BENCH_SCALE))
        cfg = RunConfig(profile=profile, workload=spec, api=api,
                        cluster=ClusterSpec(
                            topology=TopologyConfig(initial_servers=1),
                            num_clients=1,
                            **cluster_overrides))
        cluster = cfg.build()
        client = cluster.clients[0]
        client.config = ClientConfig(nonblocking_allowed=True,
                                     model_registration=True)
        result = cfg.run(cluster=cluster)
        return (metrics.effective_latency(result.records),
                client.buffer_pool.stats)

    def run_both():
        return {"iset": run(H_RDMA_OPT_NONB_I, "nonb-i"),
                "bset": run(H_RDMA_OPT_NONB_B, "nonb-b")}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = []
    for api, (lat, stats) in results.items():
        rows.append({
            "api": api,
            "latency": fmt_us(lat),
            "registrations": stats.registrations,
            "pool peak": f"{stats.peak_bytes // 1024} KB",
        })
    print()
    print(ascii_table(rows, title="Ablation — RDMA registration cost "
                                  "(cold caches)"))
    i_stats = results["iset"][1]
    b_stats = results["bset"][1]
    benchmark.extra_info["iset_registrations"] = i_stats.registrations
    benchmark.extra_info["bset_registrations"] = b_stats.registrations
    assert b_stats.registrations <= i_stats.registrations
    assert b_stats.peak_bytes <= i_stats.peak_bytes


def test_ablate_victim_policy(benchmark):
    """Coldest-page vs round-robin victim slab selection."""

    def run():
        return {policy: run_variant(victim_policy=policy)
                for policy in ("coldest", "round_robin")}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(
        [{"policy": p, "latency": fmt_us(v)} for p, v in results.items()],
        title="Ablation — victim slab selection (NonB-i, nofit)"))
    benchmark.extra_info["round_robin_penalty"] = round(
        results["round_robin"] / results["coldest"], 2)
    # LRU-guided (coldest) selection should not lose to blind rotation.
    assert results["coldest"] <= results["round_robin"] * 1.10

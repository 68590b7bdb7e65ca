"""Sensitivity analysis: how the headline result responds to hardware.

The paper's conclusions were measured on one SATA drive, one NVMe
drive, and one FDR fabric. These sweeps vary a single physical
parameter while holding the experiment fixed and report how the
headline ratio — H-RDMA-Def latency over H-RDMA-Opt-NonB-i effective
latency (the paper's "up to 16x") — responds. They answer: *on what
hardware do the non-blocking extensions matter, and where do they
stop mattering?*
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.core import metrics
from repro.core.profiles import (
    H_RDMA_DEF,
    H_RDMA_OPT_NONB_I,
    RDMA_MEM,
    DesignProfile,
)
from repro.harness.figures import (
    BASE_VALUE,
    ZIPF_THETA,
    _spec_for,
    run_single_server,
)
from repro.net.params import EDR_RDMA, FDR_RDMA
from repro.storage.params import SATA_SSD, PageCacheParams
from repro.units import MB, US


def _latencies(scale: int, ops: int, profiles: Dict[str, DesignProfile],
               theta: float = ZIPF_THETA, **cluster) -> Dict[str, float]:
    """Effective latency per labelled profile on the no-fit workload."""
    spec = _spec_for(False, scale, ops, BASE_VALUE, 0.5, theta=theta)
    return {label: metrics.effective_latency(run_single_server(
                profile, spec, scale=scale, **cluster).records)
            for label, profile in profiles.items()}


def _measure_pair(scale: int, ops: int, theta: float = ZIPF_THETA,
                  **cluster) -> Dict[str, float]:
    """Def vs NonB-i effective latency for one hardware point."""
    out = _latencies(scale, ops, {"def": H_RDMA_DEF,
                                  "nonb": H_RDMA_OPT_NONB_I},
                     theta=theta, **cluster)
    out["gain"] = out["def"] / out["nonb"]
    return out


def sweep_ssd_latency(multipliers: Sequence[float] = (0.25, 1.0, 4.0),
                      scale: int = 16, ops: int = 800) -> List[Dict]:
    """Scale the SSD's access latencies: slower drives = more to hide."""
    rows = []
    for m in multipliers:
        device = dataclasses.replace(
            SATA_SSD,
            name=f"sata-x{m:g}",
            read_latency=SATA_SSD.read_latency * m,
            write_latency=SATA_SSD.write_latency * m)
        out = _measure_pair(scale, ops, device=device)
        rows.append({"latency_multiplier": m,
                     "read_latency_us": device.read_latency / US,
                     "def_latency": out["def"],
                     "nonb_latency": out["nonb"],
                     "nonb_gain": out["gain"]})
    return rows


def sweep_ssd_bandwidth(multipliers: Sequence[float] = (0.5, 1.0, 4.0),
                        scale: int = 16, ops: int = 800) -> List[Dict]:
    """Scale the SSD's bandwidth: pipelining cannot hide a full pipe."""
    rows = []
    for m in multipliers:
        device = dataclasses.replace(
            SATA_SSD,
            name=f"sata-bw-x{m:g}",
            read_bandwidth=SATA_SSD.read_bandwidth * m,
            write_bandwidth=SATA_SSD.write_bandwidth * m)
        out = _measure_pair(scale, ops, device=device)
        rows.append({"bandwidth_multiplier": m,
                     "def_latency": out["def"],
                     "nonb_latency": out["nonb"],
                     "nonb_gain": out["gain"]})
    return rows


def sweep_zipf_theta(thetas: Sequence[float] = (0.5, 0.8, 1.1),
                     scale: int = 16, ops: int = 800) -> List[Dict]:
    """Vary workload skew: hotter workloads touch the SSD less."""
    rows = []
    for theta in thetas:
        out = _measure_pair(scale, ops, theta=theta)
        rows.append({"theta": theta,
                     "def_latency": out["def"],
                     "nonb_latency": out["nonb"],
                     "nonb_gain": out["gain"]})
    return rows


def sweep_network(scale: int = 16, ops: int = 800) -> List[Dict]:
    """FDR vs EDR fabrics: does a faster network change the picture?

    In the no-fit regime the bottleneck is the SSD path, so upgrading
    the fabric barely moves either design — the paper's conclusion is
    about I/O, not the interconnect it already optimized.
    """
    rows = []
    for name, params in (("FDR 56G", FDR_RDMA), ("EDR 100G", EDR_RDMA)):
        out = _measure_pair(scale, ops, rdma_params=params)
        rows.append({"fabric": name,
                     "def_latency": out["def"],
                     "nonb_latency": out["nonb"],
                     "nonb_gain": out["gain"]})
    return rows


def sweep_backend_penalty(penalties_ms: Sequence[float] = (0.1, 0.5, 2.0,
                                                           10.0),
                          scale: int = 16, ops: int = 800) -> List[Dict]:
    """Vary the miss penalty: when does hybrid retention beat in-memory?

    The paper *assumes* a <2 ms penalty (Sec III); this sweep locates
    the crossover where the in-memory RDMA design (paying the penalty
    on misses) overtakes or loses to the hybrid design (paying SSD I/O
    instead). With a fast-enough backend the hybrid's SSD accesses are
    not worth it — exactly the trade-off the paper's Figure 1 frames.
    """
    rows = []
    for ms in penalties_ms:
        out = _latencies(scale, ops, {"inmem": RDMA_MEM,
                                      "hybrid": H_RDMA_DEF},
                         backend_penalty=ms * 1e-3)
        rows.append({"penalty_ms": ms,
                     "inmem_latency": out["inmem"],
                     "hybrid_latency": out["hybrid"],
                     "hybrid_wins": out["hybrid"] < out["inmem"]})
    return rows


def sweep_pagecache(sizes_mb: Sequence[int] = (8, 32, 128),
                    scale: int = 16, ops: int = 800) -> List[Dict]:
    """Vary OS page-cache size: it shields the adaptive designs only."""
    rows = []
    for mb in sizes_mb:
        pc = PageCacheParams(size_bytes=mb * MB, dirty_ratio=0.4)
        out = _measure_pair(scale, ops, pagecache=pc)
        rows.append({"pagecache_mb": mb,
                     "def_latency": out["def"],
                     "nonb_latency": out["nonb"],
                     "nonb_gain": out["gain"]})
    return rows

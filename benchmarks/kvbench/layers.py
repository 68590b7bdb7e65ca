"""Per-layer numbers: the same four measured segments, three ways.

* untraced — the exact counters and the reference host speed;
* pass A, under ``cProfile`` — host self-time and calls folded by
  ``repro`` package (the layers);
* pass B, with ``ClusterSpec(profile=True)`` — simulated time per
  request stage, which must replay the untraced segments exactly.

Untraced speed divided by each traced pass's speed is that tracer's
overhead. The micro-drivers and the paper-claim grades complete the set.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
from typing import Dict, List

import repro
from repro.harness.check import run_checks, summarize_verdicts

from . import micro
from .measure import Segment, Session, Spans, layer_counters, median_ops_per_s
from .workloads import Workload

TRACED_SEGMENTS = 4

#: The layers are the ``src/repro`` packages; everything else (stdlib,
#: numpy, built-ins, top-level ``repro`` modules) folds into ``other``.
LAYERS = ("sim", "net", "storage", "server", "client", "core", "harness", "workloads",
          "obs", "other")
STAGES = ("client_queue", "credit", "nic", "wire", "server_queue", "server_cpu", "index",
          "ram", "ssd", "backend", "other")

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    if not filename.startswith(_REPRO_ROOT):
        return "other"
    package = filename[len(_REPRO_ROOT):].split(os.sep)[0]
    return package if package in LAYERS else "other"


def fold_host_time(profiler: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """``tottime`` and ``ncalls`` of every profiled function, by layer."""
    fold = {layer: {"seconds": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(profiler).stats.items():
        row = fold[layer_of(filename)]
        row["seconds"] += tottime
        row["calls"] += ncalls
    return fold


def fold_sim_stages(segments: List[Segment]) -> Dict[str, Dict[str, float]]:
    """Mean simulated seconds per request in each stage, request-weighted
    over the profiler's ``get:*`` and ``set:*`` classes."""
    out = {}
    for kind in ("get", "set"):
        count = 0
        totals = dict.fromkeys(STAGES, 0.0)
        for seg in segments:
            for cls, sketch in seg.profile.classes.items():
                if not cls.startswith(kind + ":"):
                    continue
                count += sketch.count
                for stage, seconds in sketch.stage_totals.items():
                    # replica_wait/backoff cannot occur: R=1, no faults.
                    totals[stage if stage in totals else "other"] += seconds
        out[kind] = {"requests": count,
                     **{s: (v / count if count else 0.0) for s, v in totals.items()}}
    return out


def run_pass(label: str, workload: Workload, seed: int, spans: Spans,
             ops_scale: float = 1.0, segments: int = TRACED_SEGMENTS, profiler=None,
             **cluster_overrides):
    """A fresh session and its first ``segments`` measured segments."""
    with spans.span("kvbench." + label):
        session = Session(workload, seed, spans, ops_scale, **cluster_overrides)
        segs = [session.run_segment(i, profiler) for i in range(segments)]
    return session, segs


def run_traced(workload: Workload, seed: int, spans: Spans, ops_scale: float = 1.0):
    """All per-layer metrics of one workload; returns
    ``(metrics, errors, attempted, failed, trace)``."""
    session, base = run_pass("untraced", workload, seed, spans, ops_scale)
    metrics = layer_counters(workload, session, base)
    ops = sum(s.ops for s in base)
    del session
    gc.collect()

    profiler = cProfile.Profile()
    _, pass_a = run_pass("pass_a_cprofile", workload, seed, spans, ops_scale,
                         profiler=profiler)
    host = fold_host_time(profiler)
    for layer, row in host.items():
        metrics[f"{layer}.host_us_per_op"] = row["seconds"] / ops * 1e6
        metrics[f"{layer}.calls_per_op"] = row["calls"] / ops
    gc.collect()

    _, pass_b = run_pass("pass_b_sim_profile", workload, seed, spans, ops_scale,
                         profile=True)
    stages = fold_sim_stages(pass_b)
    for kind, row in stages.items():
        for stage in STAGES:
            metrics[f"simstage.{kind}.{stage}_us"] = row[stage] * 1e6
    gc.collect()

    errors: List[str] = []
    for label, segs in (("untraced", base), ("pass A", pass_a), ("pass B", pass_b)):
        errors.extend(f"{label}: {e}" for s in segs for e in s.errors)
        for i, (ref, seg) in enumerate(zip(base, segs)):
            if seg.fingerprint != ref.fingerprint:
                errors.append(f"{label} segment {i} fingerprint {seg.fingerprint} "
                              f"differs from the untraced run's {ref.fingerprint}")
    untraced = median_ops_per_s(base)
    metrics["obs.cprofile_overhead_ratio"] = untraced / median_ops_per_s(pass_a)
    metrics["obs.profile_overhead_ratio"] = untraced / median_ops_per_s(pass_b)

    with spans.span("kvbench.micro"):
        metrics.update(micro.run_all())
    with spans.span("harness.run_checks"):
        grades = summarize_verdicts(run_checks())
    metrics["harness.paper_claims_pass"] = grades["PASS"]
    metrics["harness.paper_claims_fail"] = grades["FAIL"]
    if grades["FAIL"]:
        errors.append(f"harness.check.run_checks: {grades['FAIL']} claims FAIL")

    trace = {"host_self_time_by_layer": host, "sim_stage_seconds_per_request": stages,
             "traced_segments": TRACED_SEGMENTS, "ops_per_pass": ops}
    return metrics, errors, ops, sum(s.failed for s in base), trace

"""Command line of kvbench.

``--workload W`` runs one workload in this process and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``. Lines before
it that start with ``#`` are notes for a reader.

Without ``--workload`` the whole set runs, one fresh single-threaded
subprocess per workload and trace mode, one after another, so two
cores are never oversubscribed and peak RSS is per workload. Every
metric is printed by name with its unit; the exit code is non-zero if
any output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = ROOT / "BENCHMARK.json"
RUN_PY = Path(__file__).resolve().with_name("run.py")
TRACE_FILE = "kvbench-trace.json"

SMOKE_SEGMENTS = 2
SMOKE_OPS_SCALE = 0.1


def segments_for(seconds: int) -> int:
    """Measured segments for ``--seconds``: one per 1.5 s of requested
    measuring time (a segment takes 1.2-2 s of host time on the 2-core
    reference box), never fewer than 8, never more than 16. A fixed
    count, not a timer, so simulated numbers depend on the seed only."""
    return max(8, min(16, seconds * 2 // 3))


def is_exact(name: str) -> bool:
    """Simulated-clock numbers and event, message and byte counts repeat
    exactly for a seed; host-clock numbers do not. The metric names
    carry the clock: ``host_``, ``calls_``, ``_ns`` and the ``core``,
    ``workloads`` and ``obs`` layers are host-side."""
    if name.startswith(("sim_", "simstage.", "harness.paper_claims")):
        return True
    layer, _, rest = name.partition(".")
    return (layer in ("net", "server", "storage", "client")
            and not rest.startswith(("host_", "calls_")) and "_ns" not in rest)


# -- one workload, in this process -----------------------------------------


def run_one(args, manifest: dict, t0: float) -> int:
    from . import layers, measure
    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spans = measure.Spans(t0)
    ops_scale = SMOKE_OPS_SCALE if args.smoke else 1.0
    if args.trace:
        declared = manifest["per_layer"]
        metrics, errors, attempted, failed, trace = layers.run_traced(
            workload, args.seed, spans, ops_scale)
        notes: List[str] = []
        trace.update(seed=args.seed, spans=spans.rows)
        _merge_trace(workload.name, trace)
    else:
        declared = manifest["end_to_end"]
        metrics, notes, errors, attempted, failed = measure.run_untraced(
            workload, args.seed, spans,
            SMOKE_SEGMENTS if args.smoke else segments_for(args.seconds), ops_scale)
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        errors.append("metrics measured and metrics declared in BENCHMARK.json differ: "
                      f"{sorted(set(units) ^ set(metrics))}")
    for line in notes + [f"CHECK FAILED: {e}" for e in errors]:
        print("#", line)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()}}))
    return 1 if errors else 0


def _merge_trace(workload: str, trace: dict) -> None:
    """``kvbench-trace.json`` in the working directory holds the latest
    traced run of each workload."""
    path = Path(TRACE_FILE)
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged[workload] = trace
    path.write_text(json.dumps(merged, indent=1))


# -- the whole set ---------------------------------------------------------


def _child(workload: str, args, trace: int) -> dict:
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    notes = [ln for ln in lines if ln.startswith("#")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        notes.append(f"# CHECK FAILED: no result (exit code {proc.returncode})")
    result["notes"] = notes
    result["wall_s"] = time.perf_counter() - t0
    return result


def _print_metrics(result: dict, declared: List[dict]) -> None:
    for m in declared:
        got = result["metrics"].get(m["name"])
        value = f"{got['value']:>16.6g}" if got else f"{'missing':>16}"
        clock = "S exact" if is_exact(m["name"]) else "H"
        bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
        print(f"    {m['name']:<38}{value} {m['unit']:<7} {clock:<8}"
              f"{m['better']} is better{bound}")
    for note in result["notes"]:
        print("   ", note)


def run_set(args, manifest: dict) -> int:
    from repro.harness.check import run_checks

    from .workloads import WORKLOADS

    modes = (("end_to_end", 0),) if args.smoke else (("end_to_end", 0), ("per_layer", 1))
    Path(TRACE_FILE).unlink(missing_ok=True)
    ok = True
    #: (workload, metric name) -> the value of each repeat
    values: Dict[tuple, List[float]] = {}
    if args.smoke:
        print("SMOKE RUN: 2 segments of 1/10 the ops - numbers are not for comparison")
    for rep in range(args.repeat):
        for name in WORKLOADS:
            for group, trace in modes:
                result = _child(name, args, trace)
                ok &= result["correct"]
                print(f"== {name}  {group}  seed {args.seed}  repeat {rep + 1}/"
                      f"{args.repeat}  {result['attempted']} ops attempted, "
                      f"{result['failed']} failed, fail_share "
                      f"{result['failed'] / max(1, result['attempted']):g}  "
                      f"[{result['wall_s']:.1f} s]")
                _print_metrics(result, manifest[group])
                for metric, got in result["metrics"].items():
                    values.setdefault((name, metric), []).append(got["value"])
    print("== paper claims (harness.check.run_checks): the model's error against the "
          "paper's ranges")
    for verdict in run_checks():
        row = verdict.row
        ok &= row["grade"] != "FAIL"
        print(f"    {row['grade']:<6}{row['figure']:<8}paper {row['paper']:<10}"
              f"measured {row['measured']:<8}{row['claim']}")
    if args.repeat > 1:
        ok &= _print_agreement(values, manifest)
    if not args.smoke:
        print(f"spans and folds of the traced passes: {TRACE_FILE}")
    print("kvbench:", "all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def _print_agreement(values: Dict[tuple, List[float]], manifest: dict) -> bool:
    """Do the repeats agree: exactly on exact metrics (anything else is
    a failed check: the simulator is not deterministic), within its
    bound on every other end-to-end metric (outside is this box's noise
    floor showing, and is reported, not failed). Per-layer host-clock
    metrics have no bound and are listed with their spread only."""
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    deterministic = True
    print("== repeatability: metric x workload, each repeat's value")
    for (workload, metric), vals in values.items():
        spread = (max(vals) - min(vals)) / abs(min(vals)) if min(vals) else 0.0
        if is_exact(metric):
            same = len(set(vals)) == 1
            deterministic &= same
            verdict = "exact" if same else "CHECK FAILED: DIFFERS, and is marked exact"
        elif metric in bounds:
            verdict = (f"within {bounds[metric]:.0%}" if spread <= bounds[metric]
                       else f"OUTSIDE {bounds[metric]:.0%}")
        else:
            verdict = "no bound"
        print(f"    {workload:<20}{metric:<38}"
              + " ".join(f"{v:.6g}" for v in vals) + f"  spread {spread:.2%}  {verdict}")
    return deterministic


def main(argv: List[str], t0: float) -> int:
    from .workloads import WORKLOADS

    manifest = json.loads(MANIFEST.read_text())
    parser = argparse.ArgumentParser(prog="kvbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in-process (the driver's form)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"],
                        help="host time to measure for; sets the segment count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set N times and compare the repeats")
    parser.add_argument("--smoke", action="store_true",
                        help="2 segments of 1/10 the ops, checks on, not for comparison")
    parser.add_argument("--selftest", action="store_true",
                        help="prove the benchmark sees a planted host delay, a slowed "
                             "device and a changed seed where it should and only there")
    args = parser.parse_args(argv)
    if args.selftest:
        from . import selftest
        return selftest.main(args.seed)
    if args.workload:
        return run_one(args, manifest, t0)
    return run_set(args, manifest)

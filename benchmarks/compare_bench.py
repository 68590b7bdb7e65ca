"""Diff a pytest-benchmark JSON run against the committed baselines.

Usage::

    python benchmarks/compare_bench.py bench-results.json [BENCH_engine.json]

Prints a GitHub-flavoured markdown table comparing each benchmark's
wall-clock (and, for the macro cluster benchmarks, ops/sec) against
the ``after`` figures recorded in ``BENCH_engine.json``. Ops/sec is the
compared throughput: a row's op count is fixed, so it moves only with
wall time. Events/run and events/sec are printed as information and
never flagged — removing dead events speeds a run up and makes its
events/sec *fall*. Meant for the
non-gating CI bench job's ``$GITHUB_STEP_SUMMARY``: absolute numbers
vary with runner hardware, so the deltas are informational, never a
build failure — the script always exits 0 when both files parse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Relative slowdown beyond which a row gets flagged (informational).
FLAG_THRESHOLD = 0.05


def _baseline_entries(baseline: dict) -> dict:
    """Flatten the committed baseline: name -> {min_s, mean_s, ...}."""
    out = {}
    for section in ("benchmarks", "macro"):
        for name, entry in baseline.get(section, {}).items():
            after = entry.get("after", entry)
            out[name] = dict(after)
            for k in ("ops_per_run", "ops_per_sec_best", "events_per_run",
                      "events_per_sec_best", "p99_latency_s"):
                if k in entry:
                    out[name][k] = entry[k]
    return out


def _fmt_delta(ratio: float) -> str:
    """+4.2% means slower than baseline; -4.2% faster."""
    pct = (ratio - 1.0) * 100.0
    flag = " ⚠" if pct > FLAG_THRESHOLD * 100.0 else ""
    return f"{pct:+.1f}%{flag}"


def compare(results: dict, baseline: dict) -> str:
    """Render the comparison as a markdown table."""
    base = _baseline_entries(baseline)
    lines = [
        "### Benchmark comparison vs committed baseline",
        "",
        "| benchmark | min (s) | baseline min (s) | Δ min | ops/sec "
        "(best) | baseline | Δ | sim p99 (µs) | baseline | Δ | events/run "
        "| baseline | events/sec (best, info) |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for bench in results.get("benchmarks", []):
        name = bench["name"].split("[")[0]
        stats = bench["stats"]
        ref = base.get(name)
        if ref is None:
            lines.append(f"| `{name}` | {stats['min']:.4f} | — (new) "
                         "| — | — | — | — | — | — | — | — | — | — |")
            continue
        d_min = _fmt_delta(stats["min"] / ref["min_s"])
        extra = bench.get("extra_info", {})
        ops = extra.get("ops_per_sec_best")
        ref_ops = ref.get("ops_per_sec_best")
        if ops and ref_ops:
            # Throughput: below-baseline is the slowdown direction.
            d_ops = _fmt_delta(ref_ops / ops)
            ops_cells = f"{ops:,.0f} | {ref_ops:,.0f} | {d_ops}"
        else:
            ops_cells = "— | — | —"
        events, eps = (extra.get("events_per_run"),
                       extra.get("events_per_sec_best"))
        if events and eps:
            info_cells = (f"{events:,} | {ref.get('events_per_run', 0):,} "
                          f"| {eps:,.0f}")
        else:
            info_cells = "— | — | —"
        p99 = extra.get("p99_latency_s")
        ref_p99 = ref.get("p99_latency_s")
        if p99 and ref_p99:
            # Simulated time: deterministic, so any delta is a real
            # behaviour change, not runner noise.
            p99_cells = (f"{p99 * 1e6:.1f} | {ref_p99 * 1e6:.1f} | "
                         f"{_fmt_delta(p99 / ref_p99)}")
        else:
            p99_cells = "— | — | —"
        lines.append(f"| `{name}` | {stats['min']:.4f} | "
                     f"{ref['min_s']:.4f} | {d_min} | {ops_cells} | "
                     f"{p99_cells} | {info_cells} |")
    lines += [
        "",
        "Positive Δ = slower than the committed baseline (⚠ beyond "
        f"{FLAG_THRESHOLD:.0%}). Baselines were recorded on a different "
        "machine; treat cross-runner wall-clock deltas as trends, not "
        "regressions. *Sim p99* is simulated time — deterministic on "
        "any machine, so a nonzero Δ there is a model change. "
        "*Events/run* is the engine's deterministic cost fingerprint "
        "(lower is cheaper); events/sec is information only.",
    ]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    results_path = Path(argv[0])
    baseline_path = Path(argv[1]) if len(argv) == 2 else (
        Path(__file__).resolve().parent.parent / "BENCH_engine.json")
    results = json.loads(results_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    print(compare(results, baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""ASCII report tables for bench output and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.units import MS, US


def fmt_us(seconds: float) -> str:
    """Human latency: µs below 1 ms, ms above."""
    if seconds >= 1 * MS:
        return f"{seconds / MS:.2f} ms"
    return f"{seconds / US:.1f} us"


def fmt_pct(x: float) -> str:
    return f"{x:.1f}%"


def ascii_table(rows: Sequence[Dict[str, object]],
                columns: Optional[Sequence[str]] = None,
                title: Optional[str] = None) -> str:
    """Render dict rows as a fixed-width table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[str(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(cols)]
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    out: List[str] = []
    if title:
        out.append(title)
    out.append(sep)
    out.append("| " + " | ".join(c.ljust(w) for c, w in zip(cols, widths)) + " |")
    out.append(sep)
    for row in cells:
        out.append("| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |")
    out.append(sep)
    return "\n".join(out)


def ascii_bars(values: Dict[str, float], width: int = 48,
               title: Optional[str] = None,
               fmt=fmt_us) -> str:
    """Horizontal ASCII bar chart (for latency/stage comparisons).

    Bars are scaled to the largest value; each line shows label, bar,
    and the formatted value.
    """
    if not values:
        return f"{title or 'chart'}: (no data)"
    label_w = max(len(str(k)) for k in values)
    peak = max(values.values()) or 1.0
    out: List[str] = []
    if title:
        out.append(title)
    for label, value in values.items():
        bar = "#" * max(1 if value > 0 else 0,
                        round(width * value / peak))
        out.append(f"{str(label).ljust(label_w)} | "
                   f"{bar.ljust(width)} {fmt(value)}")
    return "\n".join(out)


def obs_report(obs, match: Optional[str] = None) -> str:
    """Observability highlights for a finished run.

    Counters and gauges as one table, histograms as another (count,
    mean, p50/p99), and each sampled gauge series summarized to its
    last/peak values. ``match`` substring-filters metric keys.
    """
    reg = obs.registry
    if not reg.enabled:
        return "observability: (disabled)"
    keep = (lambda m: match in m.key) if match else None
    sections: List[str] = []
    flat = [{"metric": m.key, "kind": m.kind, "value": f"{m.value:g}"}
            for m in reg.counters(keep)]
    flat += [{"metric": m.key, "kind": m.kind, "value": f"{m.value():g}"}
             for m in reg.gauges(keep)]
    if flat:
        sections.append(ascii_table(flat, title="Counters and gauges"))
    hists = [{"metric": h.key, "n": h.count, "mean": fmt_us(h.mean),
              "p50": fmt_us(h.percentile(50)), "p95": fmt_us(h.percentile(95)),
              "p99": fmt_us(h.percentile(99)),
              "max": fmt_us(h.max if h.count else 0.0)}
             for h in reg.histograms(keep) if h.count]
    if hists:
        sections.append(ascii_table(hists, title="Histograms"))
    if obs.sampler is not None and obs.sampler.series:
        rows = []
        for key, points in sorted(obs.sampler.series.items()):
            if match and match not in key:
                continue
            values = [v for _, v in points]
            rows.append({"series": key, "samples": len(points),
                         "last": f"{values[-1]:g}",
                         "peak": f"{max(values):g}",
                         "mean": f"{sum(values) / len(values):.2f}"})
        if rows:
            sections.append(ascii_table(rows, title="Sampled series"))
    return "\n\n".join(sections) if sections else "observability: (no data)"


"""Fig 2's six-stage breakdown, pinned.

``tests/golden/stage_breakdown.json`` holds the per-op stage means
(seconds, repr floats) of every golden-grid ``(profile, api)`` case and
of each ``figures.fig2(scale=64, ops=200)`` row, next to that row's
latency, miss rate and overlap. The behaviour digests in
``test_golden_request_path`` hash each record's outcome, not its stage
split; this file pins the split.

The pin was recorded from a per-response stage dict the server used to
fill; the breakdown is now a fold over each run's causal profile, which
sums the same intervals in another order, so a stage may differ from
the pin by float rounding only (``TOL``). Latency, miss rate and
overlap are bit-identical.

A failing case prints the value it got; regenerating means pasting it
into the JSON in a diff a reviewer sees.
"""

import dataclasses

import pytest

from repro.core import metrics
from repro.harness import figures
from tests.golden import load
from tests.test_golden_request_path import GRID, GRID_CLUSTER, grid_run

FIG2 = dict(scale=64, ops=200)
#: Seconds per stage: float rounding of sums regrouped, nothing more.
TOL = 1e-12


def grid_breakdown(profile, api):
    result, cluster = grid_run(profile, api, dataclasses.replace(
        GRID_CLUSTER, profile=True, profile_keep_traces=True))
    return metrics.stage_breakdown(result.records,
                                   cluster.obs.profiler.traces)


def assert_close(got, want):
    assert set(got) == set(want)
    assert all(abs(got[k] - want[k]) <= TOL for k in want), (got, want)


def fig2_rows():
    data = figures.fig2(**FIG2)
    return {f"{regime}/{row['design']}": row
            for regime in ("fit", "nofit") for row in data[regime]}


@pytest.mark.parametrize("profile,api", GRID,
                         ids=[f"{p.key}/{a}" for p, a in GRID])
def test_grid_breakdown_matches_pin(profile, api):
    got = grid_breakdown(profile, api)
    assert_close(got, load("stage_breakdown")["grid"][f"{profile.key}/{api}"])


def test_fig2_matches_pin():
    rows, pin = fig2_rows(), load("stage_breakdown")["fig2"]
    assert set(rows) == set(pin)
    for name, row in rows.items():
        want = dict(pin[name])
        assert_close(row["breakdown"], want.pop("breakdown"))
        got = {k: row[k] for k in ("latency", "miss_rate", "overlap_pct")}
        assert got == want, (name, got)

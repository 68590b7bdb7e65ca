"""Smoke tests for the sensitivity-analysis sweeps (tiny scale)."""

import pytest

from repro.harness import sensitivity


def test_ssd_latency_sweep_structure():
    rows = sensitivity.sweep_ssd_latency(multipliers=(1.0, 4.0),
                                         scale=64, ops=150)
    assert [r["latency_multiplier"] for r in rows] == [1.0, 4.0]
    assert all(r["nonb_gain"] > 1.0 for r in rows)
    assert rows[1]["def_latency"] > rows[0]["def_latency"]
    # Slower SSDs leave more latency to hide: the gain grows.
    assert rows[1]["nonb_gain"] > rows[0]["nonb_gain"]


def test_theta_sweep_structure():
    # 300 ops: at 150 the two gains are within 0.3% of each other.
    rows = sensitivity.sweep_zipf_theta(thetas=(0.5, 1.1),
                                        scale=64, ops=300)
    assert all(r["nonb_gain"] > 1.0 for r in rows)
    # Hotter workloads touch the SSD less: Def gets faster...
    assert rows[1]["def_latency"] < rows[0]["def_latency"]
    # ...and a more uniform one leaves more for NonB-i to hide.
    assert rows[0]["nonb_gain"] > rows[1]["nonb_gain"]


def test_pagecache_sweep_structure():
    rows = sensitivity.sweep_pagecache(sizes_mb=(4, 64), scale=64, ops=150)
    assert len(rows) == 2
    # Page cache never changes the direct-I/O design's latency.
    assert rows[0]["def_latency"] == pytest.approx(rows[1]["def_latency"])
    assert all(r["nonb_gain"] > 1.0 for r in rows)


def test_bandwidth_sweep_structure():
    rows = sensitivity.sweep_ssd_bandwidth(multipliers=(0.5, 2.0),
                                           scale=64, ops=150)
    assert all(r["nonb_gain"] > 1.0 for r in rows)


def test_network_sweep_shows_io_bound_regime():
    rows = sensitivity.sweep_network(scale=64, ops=150)
    assert [r["fabric"] for r in rows] == ["FDR 56G", "EDR 100G"]
    fdr, edr = rows
    # Faster fabric: at most marginal movement — the SSD dominates.
    assert edr["def_latency"] <= fdr["def_latency"]
    assert edr["def_latency"] > 0.9 * fdr["def_latency"]
    assert all(r["nonb_gain"] > 1.0 for r in rows)


def test_backend_penalty_sweep_structure():
    rows = sensitivity.sweep_backend_penalty(penalties_ms=(0.1, 2.0, 10.0),
                                             scale=64, ops=150)
    # Fast backend favours in-memory; from the paper's 2 ms penalty up
    # the hybrid wins.
    assert [r["hybrid_wins"] for r in rows] == [False, True, True]
    # The hybrid's latency is penalty-independent.
    assert rows[0]["hybrid_latency"] == pytest.approx(
        rows[2]["hybrid_latency"])

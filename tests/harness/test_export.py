"""Tests for figure-data export."""

import json

import pytest

from repro.cli import main
from repro.harness import figures
from repro.harness.export import export_figure
from repro.harness.figures import FIGURES


def test_every_figure_has_an_exporter():
    assert set(FIGURES) == {"table1", "fig1", "fig2", "fig4", "fig6",
                            "fig7a", "fig7b", "fig7c", "fig8a", "fig8b"}


def test_export_table1(tmp_path):
    path = export_figure("table1", tmp_path / "t1.json")
    payload = json.loads(path.read_text())
    assert payload["figure"] == "table1"
    assert len(payload["data"]) == 5
    assert payload["repro_version"]


def test_export_fig4_roundtrips_numbers(tmp_path):
    path = export_figure("fig4", tmp_path / "f4.json")
    payload = json.loads(path.read_text())
    rows = payload["data"]
    assert all(r["direct"] > r["cached"] for r in rows)


def test_export_latency_figure_small(tmp_path):
    path = export_figure("fig1", tmp_path / "f1.json", scale=64, ops=120)
    payload = json.loads(path.read_text())
    assert payload["scale"] == 64
    assert set(payload["data"]) == {"fit", "nofit"}
    assert len(payload["data"]["fit"]) == 3


def test_export_runs_the_ops_it_records(capsys, tmp_path):
    """``--ops`` reaches fig8a, and the payload records what ran."""
    out = tmp_path / "f8a.json"
    assert main(["export", "--figure", "fig8a", "--scale", "128",
                 "--ops", "150", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ops"] == 150
    assert payload["data"] == figures.fig8a(128, ops=150)


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError):
        export_figure("fig99", tmp_path / "x.json")

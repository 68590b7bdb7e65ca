"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_list_profiles(capsys):
    rc, out = run_cli(capsys, "list-profiles")
    assert rc == 0
    for key in ("ipoib-mem", "rdma-mem", "h-rdma-def",
                "h-rdma-opt-nonb-i"):
        assert key in out


def test_run_command_prints_summary(capsys):
    rc, out = run_cli(capsys, "run", "--ops", "60", "--server-mem-mb", "16",
                      "--ssd-limit-mb", "64", "--value-kb", "8")
    assert rc == 0
    assert "throughput" in out
    assert "effective latency" in out


def test_run_blocking_profile(capsys):
    rc, out = run_cli(capsys, "run", "--profile", "rdma-mem",
                      "--ops", "40", "--server-mem-mb", "16",
                      "--value-kb", "4", "--dataset-ratio", "0.5")
    assert rc == 0
    assert "RDMA-Mem" in out


def test_run_with_async_flush(capsys):
    rc, out = run_cli(capsys, "run", "--ops", "40", "--server-mem-mb", "16",
                      "--ssd-limit-mb", "64", "--value-kb", "8",
                      "--async-flush")
    assert rc == 0


def test_ycsb_command(capsys):
    rc, out = run_cli(capsys, "ycsb", "--workload", "B", "--ops", "80",
                      "--server-mem-mb", "16", "--ssd-limit-mb", "64",
                      "--value-kb", "4")
    assert rc == 0
    assert "YCSB-B" in out


def test_profile_command(capsys, tmp_path):
    json_out = tmp_path / "p.json"
    folded_out = tmp_path / "p.folded"
    rc, out = run_cli(capsys, "profile", "--ops", "80",
                      "--server-mem-mb", "16", "--ssd-limit-mb", "64",
                      "--value-kb", "8", "--sample", "2",
                      "--json", str(json_out), "--folded", str(folded_out))
    assert rc == 0
    assert "stage breakdown (mean):" in out
    assert "stage breakdown (p99):" in out
    import json

    doc = json.loads(json_out.read_text())
    assert doc["sample_every"] == 2 and doc["classes"]
    assert folded_out.read_text().strip()


def test_profile_command_ycsb(capsys):
    rc, out = run_cli(capsys, "profile", "--ycsb", "a", "--ops", "80",
                      "--server-mem-mb", "16", "--ssd-limit-mb", "64",
                      "--value-kb", "4")
    assert rc == 0
    assert "YCSB-A" in out and "top stages" in out


def test_reproduce_single_figure(capsys):
    rc, out = run_cli(capsys, "reproduce", "--figure", "fig4")
    assert rc == 0
    assert "Figure 4" in out
    assert "direct" in out


def test_reproduce_fig2_prints_the_six_stages(capsys):
    from repro.core.metrics import STAGE_KEYS

    rc, out = run_cli(capsys, "reproduce", "--figure", "fig2",
                      "--scale", "64", "--ops", "60")
    assert rc == 0
    assert "Figure 2 (stages in mean us per op)" in out
    header = next(line for line in out.splitlines() if "design" in line)
    assert all(stage in header for stage in STAGE_KEYS)
    rc, out = run_cli(capsys, "reproduce", "--figure", "fig1",
                      "--scale", "64", "--ops", "60")
    assert rc == 0 and "slab_alloc" not in out


def test_trace_creates_the_out_directory(capsys, tmp_path):
    import json

    out = tmp_path / "missing" / "dir" / "x.json"
    rc, printed = run_cli(capsys, "trace", "--ops", "20", "--out", str(out))
    assert rc == 0 and f"wrote {out}" in printed
    assert json.loads(out.read_text())["traceEvents"]


@pytest.mark.parametrize("argv", [
    ("profile", "--ops", "50", "--json", "{out}/x.json"),
    ("profile", "--ops", "50", "--folded", "{out}/x.folded"),
    ("check", "--seed", "1", "--ops", "20", "--history-out", "{out}/h.jsonl"),
    ("export", "--figure", "fig4", "--out", "{out}/fig4.json"),
], ids=["profile-json", "profile-folded", "check-history-out", "export-out"])
def test_output_file_flags_create_their_directory(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "dir"
    rc, printed = run_cli(capsys, *(a.format(out=out) for a in argv))
    assert rc == 0
    written = argv[-1].format(out=out)
    assert f"wrote {written}" in printed
    assert Path(written).read_text().strip()


@pytest.mark.parametrize("command", ["reproduce", "export"])
def test_figure_choices_are_the_registry(command):
    import argparse

    from repro.harness.figures import FIGURES

    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    figure = next(a for a in sub.choices[command]._actions
                  if a.dest == "figure")
    assert figure.choices == ["all", *FIGURES]
    for name in figure.choices:
        assert parser.parse_args([command, "--figure", name]).figure == name
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--figure", "fig3"])


def test_reproduce_table1(capsys):
    rc, out = run_cli(capsys, "reproduce", "--figure", "table1")
    assert rc == 0
    assert "This Paper" in out


@pytest.mark.parametrize("command", ["reproduce", "check", "export"])
@pytest.mark.parametrize("scale", ["0", "-3"])
def test_scale_below_one_rejected(capsys, command, scale):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scale", scale])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--servers", "0"],
    ["run", "--clients", "0"],
    ["run", "--ops", "0"],
    ["run", "--value-kb", "0"],
    ["stats", "--clients", "-1"],
    ["ycsb", "--ops", "0"],
    ["ycsb", "--value-kb", "0"],
    ["ycsb", "--servers", "0"],
])
def test_sizes_below_one_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_unknown_profile_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--profile", "bogus"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_topology_command(capsys):
    rc, out = run_cli(capsys, "topology", "--servers", "3",
                      "--router", "ketama", "--ops", "1",
                      "--server-mem-mb", "16", "--ssd-limit-mb", "64")
    assert rc == 0
    assert "epoch 0" in out
    assert "server0" in out and "server2" in out


def test_scale_command(capsys):
    rc, out = run_cli(capsys, "scale", "--from", "2", "--to", "3",
                      "--at", "1ms", "--ops", "150", "--value-kb", "4",
                      "--server-mem-mb", "16", "--ssd-limit-mb", "64",
                      "--router", "ketama", "--traffic", "spike")
    assert rc == 0
    assert "scale 2->3" in out
    assert "migrated items" in out
    assert "epoch 1" in out


def test_fuzz_elastic_band(capsys):
    rc, out = run_cli(capsys, "fuzz", "--seeds", "0:2", "--elastic",
                      "--no-shrink")
    assert rc == 0
    assert "elasticity band" in out
    assert "2/2 seeds clean" in out


@pytest.mark.parametrize("seeds", ["96:0", ",", "0:x"])
def test_fuzz_rejects_a_band_of_no_seeds(capsys, seeds):
    assert main(["fuzz", "--seeds", seeds]) == 2
    assert "names no seed" in capsys.readouterr().err


def test_fuzz_bands_mutually_exclusive(capsys):
    rc = main(["fuzz", "--seeds", "0:1", "--elastic", "--eventual"])
    assert rc == 2

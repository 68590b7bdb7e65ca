"""Tests for the artifact-evaluation claim checker."""

import pytest

from repro.harness import paper
from repro.harness.check import Verdict, _grade, run_checks, summarize_verdicts


class TestGrading:
    def test_inside_range_passes(self):
        c = paper.Claim("f", "d", 10.0, 16.0)
        assert _grade(c, 12.0).grade == "PASS"

    def test_slack_extends_range(self):
        c = paper.Claim("f", "d", 10.0, 16.0)
        assert _grade(c, 8.0, slack=0.25).grade == "PASS"

    def test_right_direction_wrong_magnitude_is_shape(self):
        c = paper.Claim("f", "d", 10.0, 16.0)
        assert _grade(c, 3.0).grade == "SHAPE"

    def test_wrong_direction_fails(self):
        c = paper.Claim("f", "d", 10.0, 16.0)
        assert _grade(c, 0.7).grade == "FAIL"

    def test_verdict_row_shape(self):
        v = Verdict(paper.FIG1_DEF_DEGRADATION, 11.0, "PASS")
        row = v.row
        assert row["grade"] == "PASS"
        assert row["paper"] == "15-17"
        assert row["measured"] == "11.00"


@pytest.fixture(scope="module")
def small_scale_verdicts():
    return run_checks(scale=48, ops=300)


def test_run_checks_small_scale_no_failures(small_scale_verdicts):
    summary = summarize_verdicts(small_scale_verdicts)
    assert summary["FAIL"] == 0
    assert summary["PASS"] >= 6
    assert len(small_scale_verdicts) == 12


def test_cli_check_command(capsys, monkeypatch, small_scale_verdicts):
    """``repro check`` grades through ``run_checks`` with its flags and
    prints the table; the runs are deterministic, so their verdicts are
    the ones the test above computed."""
    from repro.cli import main
    from repro.harness import check

    calls = []

    def graded(**kwargs):
        calls.append(kwargs)
        return small_scale_verdicts

    monkeypatch.setattr(check, "run_checks", graded)
    rc = main(["check", "--scale", "48", "--ops", "300"])
    out = capsys.readouterr().out
    assert calls == [{"scale": 48, "ops": 300}]
    assert rc == 0
    assert "Paper-claim check" in out
    assert "FAIL" in out  # summary line

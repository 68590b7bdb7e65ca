"""Tests for report formatting and the encoded paper claims."""

from repro.harness import paper
from repro.harness.report import ascii_bars, ascii_table, fmt_pct, fmt_us
from repro.units import MS, US


class TestFormatters:
    def test_fmt_us_small(self):
        assert fmt_us(12.34 * US) == "12.3 us"

    def test_fmt_us_switches_to_ms(self):
        assert fmt_us(2.5 * MS) == "2.50 ms"

    def test_fmt_pct(self):
        assert fmt_pct(12.3456) == "12.3%"


class TestAsciiTable:
    def test_renders_rows(self):
        out = ascii_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}],
                          title="t")
        assert "t" in out
        assert "| a " in out and "| 22" in out

    def test_empty(self):
        assert "(no rows)" in ascii_table([], title="empty")

    def test_column_selection(self):
        out = ascii_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[1]


def test_ascii_bars_renders():
    out = ascii_bars({"RDMA-Mem": 15 * US, "H-RDMA-Def": 165 * US},
                     title="nofit latency")
    assert "nofit latency" in out
    assert out.count("#") > 10
    lines = out.splitlines()
    assert len(lines) == 3
    # The larger value gets the longer bar.
    assert lines[2].count("#") > lines[1].count("#")


def test_ascii_bars_empty():
    assert "(no data)" in ascii_bars({}, title="x")


class TestClaims:
    def test_claim_contains(self):
        c = paper.Claim("f", "d", 10.0, 16.0)
        assert c.contains(12.0)
        assert not c.contains(9.0)
        assert c.contains(9.0, slack=0.2)

    def test_all_claims_collected(self):
        assert len(paper.ALL_CLAIMS) >= 12
        assert all(c.low <= c.high for c in paper.ALL_CLAIMS)
        assert all(c.figure.startswith("fig") for c in paper.ALL_CLAIMS)

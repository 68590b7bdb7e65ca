"""Tests for trace export/import round trips."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.request import OpRecord
from repro.core import trace


@pytest.fixture()
def records():
    return [
        OpRecord(op="get", api="iget", key_length=14, value_length=32768,
                 status="HIT", t_issue=0.001, t_complete=0.0012,
                 blocked_time=0.00001, server_index=2),
        OpRecord(op="get", api="get", key_length=14, value_length=1024,
                 status="MISS", t_issue=0.002, t_complete=0.0041,
                 blocked_time=0.0021, miss_penalty=0.002, server_index=0),
        OpRecord(op="get", api="get", key_length=14, value_length=0,
                 status="SERVER_DOWN", t_issue=0.005, t_complete=0.006,
                 blocked_time=0.001, miss_penalty=0.0, server_index=1),
    ]


def test_csv_roundtrip(tmp_path, records):
    path = trace.write_csv(records, tmp_path / "ops.csv")
    loaded = trace.read_csv(path)
    assert loaded == records


def test_jsonl_roundtrip(tmp_path, records):
    path = trace.write_jsonl(records, tmp_path / "ops.jsonl")
    loaded = trace.read_jsonl(path)
    assert loaded == records


def test_to_dicts_has_one_miss_penalty_column(records):
    rows = trace.to_dicts(records)
    assert [d["miss_penalty"] for d in rows] == [None, 0.002, 0.0]
    assert not any(k.startswith("stage_") for k in rows[0])
    assert rows[0]["op"] == "get"


def test_a_zero_miss_penalty_survives_the_csv(tmp_path, records):
    """An empty cell is "no fetch"; 0.0 is a fetch that cost nothing."""
    loaded = trace.read_csv(trace.write_csv(records, tmp_path / "ops.csv"))
    assert [r.miss_penalty for r in loaded] == [None, 0.002, 0.0]


def test_csv_from_live_run(tmp_path):
    from repro import build_cluster, profiles
    from repro.units import KB, MB

    cluster = build_cluster(profiles.RDMA_MEM, server_mem=8 * MB)
    client = cluster.clients[0]

    def app(sim):
        yield from client.set(b"k", 4 * KB)
        yield from client.get(b"k")

    cluster.sim.run(until=cluster.sim.spawn(app(cluster.sim)))
    path = trace.write_csv(client.records, tmp_path / "live.csv")
    loaded = trace.read_csv(path)
    assert len(loaded) == 2
    assert loaded[0].op == "set" and loaded[1].status == "HIT"
    # Metrics work identically on loaded records.
    from repro.core import metrics
    assert metrics.mean_latency(loaded) == pytest.approx(
        metrics.mean_latency(client.records))


def test_ascii_bars_renders():
    from repro.harness.report import ascii_bars
    from repro.units import US

    out = ascii_bars({"RDMA-Mem": 15 * US, "H-RDMA-Def": 165 * US},
                     title="nofit latency")
    assert "nofit latency" in out
    assert out.count("#") > 10
    lines = out.splitlines()
    assert len(lines) == 3
    # The larger value gets the longer bar.
    assert lines[2].count("#") > lines[1].count("#")


def test_ascii_bars_empty():
    from repro.harness.report import ascii_bars

    assert "(no data)" in ascii_bars({}, title="x")


def test_base_fields_cover_every_stored_oprecord_field():
    """_BASE_FIELDS must stay in sync with the OpRecord dataclass (the
    trace id only means something next to its run's profiler)."""
    stored = {f.name for f in dataclasses.fields(OpRecord)}
    assert set(trace._BASE_FIELDS) | {"trace_id"} == stored


def test_derived_fields_are_written_and_survive_roundtrip(tmp_path, records):
    d = trace.to_dicts(records)[0]
    assert d["latency"] == pytest.approx(records[0].latency)
    assert d["overlap_fraction"] == pytest.approx(
        records[0].overlap_fraction)
    for reader, writer, name in (
            (trace.read_csv, trace.write_csv, "ops.csv"),
            (trace.read_jsonl, trace.write_jsonl, "ops.jsonl")):
        loaded = reader(writer(records, tmp_path / name))
        for orig, back in zip(records, loaded):
            assert back.latency == pytest.approx(orig.latency)
            assert back.overlap_fraction == pytest.approx(
                orig.overlap_fraction)


@st.composite
def op_records(draw):
    t_issue = draw(st.floats(min_value=0, max_value=10, allow_nan=False))
    dt = draw(st.floats(min_value=0, max_value=1, allow_nan=False))
    penalty = draw(st.none() | st.floats(min_value=0, max_value=1e-2,
                                         allow_nan=False))
    return OpRecord(
        op=draw(st.sampled_from(["get", "set", "delete"])),
        api=draw(st.sampled_from(["get", "set", "iget", "iset", "bget",
                                  "bset"])),
        key_length=draw(st.integers(min_value=1, max_value=250)),
        value_length=draw(st.integers(min_value=0, max_value=1 << 20)),
        status=draw(st.sampled_from(["HIT", "MISS", "STORED"])),
        t_issue=t_issue, t_complete=t_issue + dt,
        blocked_time=draw(st.floats(min_value=0, max_value=1,
                                    allow_nan=False)),
        miss_penalty=penalty,
        server_index=draw(st.integers(min_value=-1, max_value=31)))


@settings(max_examples=60, deadline=None)
@given(st.lists(op_records(), max_size=8))
def test_roundtrip_property(tmp_path_factory, recs):
    tmp_path = tmp_path_factory.mktemp("trace")
    assert trace.read_csv(trace.write_csv(recs, tmp_path / "r.csv")) == recs
    assert trace.read_jsonl(
        trace.write_jsonl(recs, tmp_path / "r.jsonl")) == recs

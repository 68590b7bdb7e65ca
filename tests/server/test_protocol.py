"""Unit tests for wire-protocol record sizes and invariants."""

from repro.server.protocol import (
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    BufferAck,
    DeleteRequest,
    GetRequest,
    MultiGetRequest,
    Response,
    SetRequest,
    StatsRequest,
)


def test_request_header_scales_with_key():
    short = GetRequest(req_id=1, op="get", key=b"k")
    long = GetRequest(req_id=2, op="get", key=b"k" * 64)
    assert long.header_bytes - short.header_bytes == 63
    assert short.header_bytes == REQUEST_HEADER_BYTES + 1


def test_post_init_sets_op():
    assert SetRequest(req_id=1, op="x", key=b"k").op == "set"
    assert GetRequest(req_id=1, op="x", key=b"k").op == "get"
    assert DeleteRequest(req_id=1, op="x", key=b"k").op == "delete"
    assert StatsRequest(req_id=1, op="x", key=b"junk").op == "stats"
    assert MultiGetRequest(req_id=1, op="x", key=b"k").op == "mget"


def test_stats_request_clears_key():
    assert StatsRequest(req_id=1, op="stats", key=b"whatever").key == b""


def test_mget_header_scales_with_entries():
    one = MultiGetRequest(req_id=1, op="mget", key=b"a",
                          entries=((1, b"aaaa"),))
    two = MultiGetRequest(req_id=1, op="mget", key=b"a",
                          entries=((1, b"aaaa"), (2, b"bbbb")))
    assert two.header_bytes - one.header_bytes == 4 + 8
    assert one.header_bytes == REQUEST_HEADER_BYTES + 4 + 8


def test_set_request_defaults():
    r = SetRequest(req_id=1, op="set", key=b"k", value_length=10)
    assert r.mode == "set"
    assert r.cas_token == 0
    assert not r.inline_value


def test_response_sizes_and_defaults():
    r = Response(req_id=1, op="get", status="HIT", value_length=100)
    assert r.header_bytes == RESPONSE_HEADER_BYTES
    assert r.stats_payload is None
    assert r.cas_token == 0
    assert not hasattr(r, "stages")  # stage timings live in the causal profile


def test_buffer_ack_is_small():
    assert BufferAck(req_id=1).header_bytes < REQUEST_HEADER_BYTES

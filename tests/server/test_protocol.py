"""Unit tests for wire-protocol record sizes and invariants."""

from unittest import mock

import pytest

from repro import build_cluster, profiles
from repro.net.fabric import NIC
from repro.server.protocol import (
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    BufferAck,
    Request,
    Response,
)
from repro.units import KB, MB

#: Wire bytes of each op's request as the client sends it, for the
#: 3-byte key ``b"key"``: the 64-byte header plus the key. flush and
#: stats are key-less; an mget sends no key of its own but 8 bytes (a
#: request id) plus the key per entry.
HEADER_BYTES = {
    "set": 67, "get": 67, "mget": 64 + 2 * (8 + 3), "delete": 67,
    "touch": 67, "incr": 67, "decr": 67, "gat": 67, "flush": 64,
    "stats": 64,
}


@pytest.mark.parametrize("profile,value_bytes", [
    (profiles.RDMA_MEM, 0),  # the value is a separate RDMA write
    (profiles.IPOIB_MEM, 1 * KB),  # the value rides in the SET's message
], ids=["rdma", "ipoib"])
def test_header_bytes_per_op(profile, value_bytes):
    cluster = build_cluster(profile, server_mem=16 * MB)
    client = cluster.clients[0]
    sent = {}
    transmit = NIC.transmit

    def spy(nic, to, nbytes, payload=None, **kw):
        if isinstance(payload, Request):
            sent[payload.op] = nbytes
        return transmit(nic, to, nbytes, payload, **kw)

    def app(sim):
        yield from client.set(b"key", 1 * KB)
        yield from client.get(b"key")
        yield from client.mget([b"key", b"kez"])
        yield from client.touch(b"key", sim.now + 1.0)
        yield from client.gat(b"key", sim.now + 1.0)
        yield from client.incr(b"ctr", initial=0)
        yield from client.decr(b"ctr")
        yield from client.delete(b"key")
        yield from client.flush_all(delay=0.5)
        yield from client.stats()

    with mock.patch.object(NIC, "transmit", spy):
        cluster.sim.run(until=cluster.sim.spawn(app(cluster.sim)))
    assert sent == dict(HEADER_BYTES, set=HEADER_BYTES["set"] + value_bytes)


def test_request_header_scales_with_key():
    short = Request(1, "get", b"k")
    long = Request(2, "get", b"k" * 64)
    assert long.header_bytes - short.header_bytes == 63
    assert short.header_bytes == REQUEST_HEADER_BYTES + 1


def test_mget_header_scales_with_entries():
    one = Request(1, "mget", b"", entries=((1, b"aaaa"),))
    two = Request(1, "mget", b"", entries=((1, b"aaaa"), (2, b"bbbb")))
    assert two.header_bytes - one.header_bytes == 4 + 8
    assert one.header_bytes == REQUEST_HEADER_BYTES + 4 + 8


def test_request_defaults():
    r = Request(1, "set", b"k", value_length=10)
    assert r.mode == "set"
    assert r.cas_token == 0
    assert not r.inline_value and not r.replica
    assert r.delta == 1 and r.initial is None
    assert r.entries == () and r.traces == ()


def test_response_sizes_and_defaults():
    r = Response(req_id=1, op="get", status="HIT", value_length=100)
    assert r.header_bytes == RESPONSE_HEADER_BYTES
    assert r.stats_payload is None
    assert r.cas_token == 0
    assert not hasattr(r, "stages")  # stage timings live in the causal profile


def test_buffer_ack_is_small():
    assert BufferAck(req_id=1).header_bytes < REQUEST_HEADER_BYTES

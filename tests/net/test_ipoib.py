"""Direct tests for the IPoIB stream transport."""

import pytest

from repro.net.fabric import Fabric
from repro.net.params import FDR_IPOIB, FDR_RDMA
from repro.net.transport import connect_ipoib
from repro.sim import Simulator
from repro.units import KB, MB


@pytest.fixture()
def conn():
    sim = Simulator()
    fabric = Fabric(sim)
    a, b = connect_ipoib(sim, fabric.node("a"), fabric.node("b"))
    return sim, a, b


def test_bidirectional_send_recv(conn):
    sim, a, b = conn
    got = {}

    def side_b(sim):
        msg = yield b.recv()
        got["b"] = msg.payload
        b.send("pong", 64)

    def side_a(sim):
        a.send("ping", 64)
        msg = yield a.recv()
        got["a"] = msg.payload

    sim.spawn(side_b(sim))
    sim.spawn(side_a(sim))
    sim.run()
    assert got == {"a": "pong", "b": "ping"}


def test_stream_preserves_order(conn):
    sim, a, b = conn
    seen = []

    def rx(sim):
        for _ in range(5):
            msg = yield b.recv()
            seen.append(msg.payload)

    for i in range(5):
        a.send(i, 1 * KB)
    sim.spawn(rx(sim))
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_mtu_segmentation_penalty():
    # A 1 MB message crosses many IPoIB MTUs; the per-segment overhead
    # must show up in serialization time.
    t = FDR_IPOIB.serialize_time(1 * MB)
    base = 1 * MB / FDR_IPOIB.bandwidth
    segments = -(-1 * MB // FDR_IPOIB.mtu)
    assert t == pytest.approx(base + segments * FDR_IPOIB.per_segment_overhead)
    assert segments == 16


def test_ipoib_latency_and_cpu_dominate_small_messages():
    # For small messages the RDMA/IPoIB gap is stack latency, not bytes.
    ipoib = FDR_IPOIB.latency + FDR_IPOIB.cpu_send + FDR_IPOIB.cpu_recv
    rdma = FDR_RDMA.latency + FDR_RDMA.cpu_send + FDR_RDMA.cpu_recv
    assert ipoib > 5 * rdma

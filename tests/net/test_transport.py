"""Tests for the uniform Endpoint API over RDMA and IPoIB."""

import pytest

from repro.net.fabric import Fabric
from repro.net.params import FDR_IPOIB, FDR_RDMA, LinkParams
from repro.net.transport import connect_ipoib, connect_rdma
from repro.sim import Simulator
from repro.units import KB, MB


@pytest.fixture()
def sim_fabric():
    sim = Simulator()
    return sim, Fabric(sim)


def test_rdma_endpoint_roundtrip(sim_fabric):
    sim, fabric = sim_fabric
    cli, srv = connect_rdma(sim, fabric.node("c"), fabric.node("s"))
    got = []

    def server(sim):
        msg = yield srv.recv()
        got.append(msg)

    cli.send({"op": "get"}, 128)
    sim.spawn(server(sim))
    sim.run()
    assert got[0].payload == {"op": "get"}
    assert got[0].nbytes == 128
    assert not got[0].one_sided
    assert got[0].recv_cpu == FDR_RDMA.cpu_recv


def test_send_completes_on_a_link_that_costs_nothing():
    # No busy time and no latency: the frame is delivered within the
    # instant it was sent, and the sender's milestones are already due.
    free = LinkParams(name="free", latency=0.0, bandwidth=float("inf"),
                      cpu_send=0.0, cpu_recv=0.0)
    sim = Simulator()
    fabric = Fabric(sim)
    cli, srv = connect_rdma(sim, fabric.node("c"), fabric.node("s"), free)
    got = []
    srv.receiver = lambda msg: got.append((sim.now, msg.payload))
    msg = cli.send("now", 64)
    sim.run()
    assert sim.now == 0.0
    assert got == [(0.0, "now")]
    assert msg.wire_at == msg.delivered_at == 0.0


def test_rdma_frames_arrive_in_send_order(sim_fabric):
    # A big frame sent first still arrives first: one pipe per NIC.
    sim, fabric = sim_fabric
    cli, srv = connect_rdma(sim, fabric.node("c"), fabric.node("s"))
    got = []
    srv.receiver = lambda msg: got.append((sim.now, msg.payload))
    for i, nbytes in enumerate((64 * KB, 64, 1 * KB)):
        cli.send(i, nbytes)
    sim.run()
    assert [payload for _, payload in got] == [0, 1, 2]
    assert got[0][0] < got[1][0] < got[2][0]


def test_rdma_one_sided_has_zero_recv_cpu(sim_fabric):
    sim, fabric = sim_fabric
    cli, srv = connect_rdma(sim, fabric.node("c"), fabric.node("s"))
    got = []

    def server(sim):
        msg = yield srv.recv()
        got.append(msg)

    cli.send("bulk-value", 32 * KB, one_sided=True)
    sim.spawn(server(sim))
    sim.run()
    assert got[0].one_sided
    assert got[0].recv_cpu == 0.0


def test_ipoib_endpoint_roundtrip(sim_fabric):
    sim, fabric = sim_fabric
    cli, srv = connect_ipoib(sim, fabric.node("c"), fabric.node("s"))
    got = []

    def server(sim):
        msg = yield srv.recv()
        got.append(msg)

    cli.send("req", 128)
    sim.spawn(server(sim))
    sim.run()
    assert got[0].payload == "req"
    assert got[0].recv_cpu == FDR_IPOIB.cpu_recv


def test_ipoib_one_sided_degrades_to_stream(sim_fabric):
    sim, fabric = sim_fabric
    cli, srv = connect_ipoib(sim, fabric.node("c"), fabric.node("s"))
    got = []

    def server(sim):
        msg = yield srv.recv()
        got.append(msg)

    cli.send("v", 1 * KB, one_sided=True)
    sim.spawn(server(sim))
    sim.run()
    assert not got[0].one_sided
    assert got[0].recv_cpu > 0
    assert not cli.supports_one_sided
    assert connect_rdma(sim, fabric.node("c"), fabric.node("s"))[0].supports_one_sided


def test_rdma_faster_than_ipoib_for_same_payload(sim_fabric):
    sim, fabric = sim_fabric
    r_cli, r_srv = connect_rdma(sim, fabric.node("rc"), fabric.node("rs"))
    i_cli, i_srv = connect_ipoib(sim, fabric.node("ic"), fabric.node("is"))
    times = {}

    def receiver(sim, ep, tag):
        msg = yield ep.recv()
        yield sim.timeout(msg.recv_cpu)
        times[tag] = sim.now

    r_cli.send("x", 32 * KB)
    i_cli.send("x", 32 * KB)
    sim.spawn(receiver(sim, r_srv, "rdma"))
    sim.spawn(receiver(sim, i_srv, "ipoib"))
    sim.run()
    assert times["rdma"] < times["ipoib"] / 2


def test_on_wire_event_marks_buffer_reuse_point(sim_fabric):
    sim, fabric = sim_fabric
    cli, _srv = connect_rdma(sim, fabric.node("c"), fabric.node("s"))
    msg = cli.send("v", 1 * MB, one_sided=True)
    sim.run(until=msg.on_wire)
    wire_t = sim.now
    sim.run(until=msg.delivered)
    assert sim.now > wire_t


def test_same_node_endpoints_share_nic(sim_fabric):
    sim, fabric = sim_fabric
    # Two clients on one node contend on the shared NIC.
    c1, _s1 = connect_rdma(sim, fabric.node("shared"), fabric.node("s1"))
    c2, _s2 = connect_rdma(sim, fabric.node("shared"), fabric.node("s2"))
    assert c1.nic is c2.nic
    m1 = c1.send("a", 1 * MB)
    m2 = c2.send("b", 1 * MB)
    sim.run(until=m1.on_wire)
    t1 = sim.now
    sim.run(until=m2.on_wire)
    assert sim.now >= 2 * t1 * 0.99


def test_polled_write_wakes_nobody_and_lands_at_delivered_at(sim_fabric):
    sim, fabric = sim_fabric
    srv, cli = connect_rdma(sim, fabric.node("s"), fabric.node("c"))
    polled = []
    cli.receiver = lambda _msg: pytest.fail("a polled write reached the receiver")
    cli.poller = lambda msg: polled.append((sim.now, msg.payload, msg))
    msg = srv.write_polled("ack", 64)
    assert polled == [(0.0, "ack", msg)]  # told at send time
    sim.run()
    assert sim.events_processed == 0  # nothing was scheduled
    sim.run(until=msg.delivered)  # a waiting poller makes the one timer
    assert sim.now == msg.delivered_at and sim.events_processed == 1


def test_polled_write_without_a_poller_arrives_as_a_frame(sim_fabric):
    sim, fabric = sim_fabric
    srv, cli = connect_rdma(sim, fabric.node("s"), fabric.node("c"))
    got = []

    def client(sim):
        got.append((yield cli.recv()))
        got.append(sim.now)

    msg = srv.write_polled("ack", 64)
    sim.spawn(client(sim))
    sim.run()
    assert got[0].payload == "ack" and got[0].one_sided
    assert got[1] == msg.delivered_at


def test_listened_ipoib_socket_takes_frames_after_its_receive_cpu(sim_fabric):
    sim, fabric = sim_fabric
    srv, cli = connect_ipoib(sim, fabric.node("s"), fabric.node("c"))
    taken = []
    cli.listen(lambda msg: taken.append((sim.now, msg.payload)))
    msgs = [srv.send(i, 1 * KB) for i in range(3)]
    sim.run()
    # One event per frame: its receive end. The sender's pipe spaces the
    # frames by cpu_send + serialize, equal to cpu_recv plus a little, so
    # each is taken one receive after it arrived.
    assert sim.events_processed == 3
    assert taken == [(m.delivered_at + FDR_IPOIB.cpu_recv, i)
                     for i, m in enumerate(msgs)]


#: Each way a message reaches its consumer: how it is sent, how the
#: peer takes it, and the receive CPU and one-sidedness it carries.
PATHS = {
    "rdma-two-sided": (connect_rdma, "send", "receiver", FDR_RDMA.cpu_recv, False),
    "rdma-one-sided": (connect_rdma, "one-sided", "receiver", 0.0, True),
    "polled-write-to-a-poller": (connect_rdma, "polled", "poller", 0.0, True),
    "polled-write-without-a-poller": (connect_rdma, "polled", "receiver", 0.0, True),
    "ipoib-listen": (connect_ipoib, "send", "listen", FDR_IPOIB.cpu_recv, False),
    "ipoib-recv": (connect_ipoib, "send", "recv", FDR_IPOIB.cpu_recv, False),
}


@pytest.mark.parametrize("path", list(PATHS))
def test_the_consumer_gets_the_message_that_was_sent(sim_fabric, path):
    """A transfer is one object: on every path the peer's consumer is
    handed the very message ``send``/``write_polled`` returned."""
    connect, kind, take, recv_cpu, one_sided = PATHS[path]
    sim, fabric = sim_fabric
    a, b = connect(sim, fabric.node("a"), fabric.node("b"))
    got = []
    if take == "recv":
        def consumer():
            got.append((yield b.recv()))
        sim.spawn(consumer())
    elif take == "listen":
        b.listen(got.append)
    else:
        setattr(b, take, got.append)
    if kind == "polled":
        msg = a.write_polled("x", 4 * KB)
    else:
        msg = a.send("x", 4 * KB, one_sided=kind == "one-sided")
    sim.run()
    assert len(got) == 1 and got[0] is msg
    assert msg.to is b
    assert (msg.payload, msg.nbytes, msg.recv_cpu, msg.one_sided) == (
        "x", 4 * KB, recv_cpu, one_sided)

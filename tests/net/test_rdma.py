"""Tests for the verbs-level RDMA model (QPs, CQs, one-sided ops)."""

import pytest

from repro.net.fabric import Fabric
from repro.net.params import FDR_RDMA, LinkParams
from repro.net.rdma import HEADER_BYTES, CompletionQueue, QueuePair, WorkCompletion
from repro.sim import Simulator, SimulationError
from repro.units import KB, MB


@pytest.fixture()
def rig():
    sim = Simulator()
    fabric = Fabric(sim)
    qp_a = QueuePair(sim, fabric.node("a").nic(FDR_RDMA))
    qp_b = QueuePair(sim, fabric.node("b").nic(FDR_RDMA))
    qp_a.connect(qp_b)
    return sim, qp_a, qp_b


class TestConnection:
    def test_connect_is_symmetric(self, rig):
        _, qp_a, qp_b = rig
        assert qp_a.peer is qp_b and qp_b.peer is qp_a

    def test_double_connect_rejected(self, rig):
        sim, qp_a, _ = rig
        qp_c = QueuePair(sim, qp_a.nic)
        with pytest.raises(SimulationError):
            qp_a.connect(qp_c)

    def test_unconnected_send_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim)
        qp = QueuePair(sim, fabric.node("x").nic(FDR_RDMA))
        with pytest.raises(SimulationError):
            qp.post_send(wr_id=1, nbytes=64)


class TestTwoSided:
    def test_send_recv_roundtrip(self, rig):
        sim, qp_a, qp_b = rig
        qp_b.post_recv(wr_id="rx-1")
        qp_a.post_send(wr_id="tx-1", nbytes=256, payload={"hello": 1})
        sim.run()
        send_wc = qp_a.send_cq.try_poll()
        recv_wc = qp_b.recv_cq.try_poll()
        assert send_wc.wr_id == "tx-1" and send_wc.opcode == "send"
        assert recv_wc.wr_id == "rx-1" and recv_wc.opcode == "recv"
        assert recv_wc.payload == {"hello": 1}

    def test_send_completes_on_a_link_that_costs_nothing(self):
        # No busy time and no latency: ``delivered`` is reached in the
        # instant of the post, so the completion cannot wait on it.
        free = LinkParams(name="free", latency=0.0, bandwidth=float("inf"),
                          cpu_send=0.0, cpu_recv=0.0)
        sim = Simulator()
        fabric = Fabric(sim)
        qp_a = QueuePair(sim, fabric.node("a").nic(free))
        qp_b = QueuePair(sim, fabric.node("b").nic(free))
        qp_a.connect(qp_b)
        qp_b.post_recv(wr_id="rx")
        qp_a.post_send(wr_id="tx", nbytes=64, payload="now")
        sim.run()
        assert sim.now == 0.0
        assert qp_a.send_cq.try_poll().wr_id == "tx"
        assert qp_b.recv_cq.try_poll().payload == "now"

    def test_send_before_recv_is_buffered_rnr(self, rig):
        sim, qp_a, qp_b = rig
        qp_a.post_send(wr_id="tx", nbytes=64, payload="late-recv")
        sim.run()
        assert qp_b.recv_cq.try_poll() is None
        qp_b.post_recv(wr_id="rx")
        sim.run()
        wc = qp_b.recv_cq.try_poll()
        assert wc.wr_id == "rx" and wc.payload == "late-recv"

    def test_rnr_completion_reports_the_bytes_it_carried(self, rig):
        # A send that beat its post_recv (parked in the RNR backlog)
        # completes with the same nbytes as one that found a posted
        # receive; the backlog path used to report nbytes=0.
        sim, qp_a, qp_b = rig
        qp_a.post_send(wr_id="early", nbytes=3 * KB, payload="early")
        sim.run()
        qp_b.post_recv(wr_id="rx-early")
        qp_b.post_recv(wr_id="rx-late")
        qp_a.post_send(wr_id="late", nbytes=3 * KB, payload="late")
        sim.run()
        early, late = qp_b.recv_cq.try_poll(), qp_b.recv_cq.try_poll()
        assert (early.payload, late.payload) == ("early", "late")
        assert early.nbytes == late.nbytes == 3 * KB

    def test_recv_order_is_fifo(self, rig):
        sim, qp_a, qp_b = rig
        for i in range(3):
            qp_b.post_recv(wr_id=f"rx-{i}")
        for i in range(3):
            qp_a.post_send(wr_id=f"tx-{i}", nbytes=64, payload=i)
        sim.run()
        payloads = [qp_b.recv_cq.try_poll().payload for _ in range(3)]
        assert payloads == [0, 1, 2]

    def test_blocking_wait_on_cq(self, rig):
        sim, qp_a, qp_b = rig
        got = []

        def server(sim):
            qp_b.post_recv(wr_id="rx")
            wc = yield qp_b.recv_cq.wait()
            got.append((sim.now, wc.payload))

        def client(sim):
            yield sim.timeout(1e-3)
            qp_a.post_send(wr_id="tx", nbytes=128, payload="ping")

        sim.spawn(server(sim))
        sim.spawn(client(sim))
        sim.run()
        assert len(got) == 1 and got[0][1] == "ping"
        assert got[0][0] > 1e-3


class TestOneSided:
    def test_rdma_write_completion_at_initiator(self, rig):
        sim, qp_a, qp_b = rig
        qp_a.rdma_write(wr_id="w1", nbytes=32 * KB)
        sim.run()
        wc = qp_a.send_cq.try_poll()
        assert wc.opcode == "rdma_write" and wc.wr_id == "w1"
        # remote recv CQ untouched: one-sided
        assert qp_b.recv_cq.try_poll() is None

    def test_rdma_write_remote_polling_hook(self, rig):
        sim, qp_a, _ = rig
        landed = []
        qp_a.rdma_write(wr_id="w", nbytes=1 * KB, payload="data",
                        on_remote=landed.append)
        sim.run()
        assert landed == ["data"]

    def test_rdma_read_roundtrip_time(self, rig):
        sim, qp_a, qp_b = rig
        qp_a.rdma_read(wr_id="r", nbytes=1 * MB)
        sim.run()
        wc = qp_a.send_cq.try_poll()
        assert wc.opcode == "rdma_read" and wc.nbytes == 1 * MB
        p = FDR_RDMA
        expected = (p.cpu_send + p.serialize_time(HEADER_BYTES) + p.latency  # request
                    + p.cpu_send + p.serialize_time(1 * MB) + p.latency)     # response
        assert sim.now == pytest.approx(expected, rel=1e-9)

    def test_rdma_read_no_responder_recv_consumed(self, rig):
        sim, qp_a, qp_b = rig
        qp_b.post_recv(wr_id="rx")
        qp_a.rdma_read(wr_id="r", nbytes=4 * KB)
        sim.run()
        # The posted recv is still pending: reads bypass channel semantics.
        assert len(qp_b._posted_recvs) == 1


class TestCompletionQueue:
    def test_try_poll_empty_returns_none(self):
        sim = Simulator()
        cq = CompletionQueue(sim)
        assert cq.try_poll() is None

    def test_fifo_and_len(self):
        sim = Simulator()
        cq = CompletionQueue(sim)
        cq.push(WorkCompletion(wr_id=1, opcode="send", nbytes=0))
        cq.push(WorkCompletion(wr_id=2, opcode="send", nbytes=0))
        sim.run()
        assert len(cq) == 2
        assert cq.try_poll().wr_id == 1
        assert cq.try_poll().wr_id == 2

"""Unit tests for MemcachedReq and OpRecord."""

import pytest

from repro.client.request import MemcachedReq, OpRecord
from repro.sim import Simulator


def make_req(**kw):
    sim = Simulator()
    defaults = dict(req_id=1, op="get", key=b"k", value_length=0, api="iget")
    defaults.update(kw)
    return sim, MemcachedReq(sim, **defaults)


def test_initial_state():
    _, req = make_req()
    assert not req.done
    assert req.status is None
    assert req.blocked_time == 0.0
    assert req.cas_token == 0


def test_done_after_completion():
    sim, req = make_req()
    req.complete.succeed("resp")
    assert req.done


class _Wire:
    """Stand-in for the request message: just its ``on_wire`` event."""

    def __init__(self, sim):
        self.on_wire = sim.event()


def test_buffer_safe_is_not_allocated_until_asked():
    sim, req = make_req()
    msg = _Wire(sim)
    req.reuse_point(msg)
    assert req._buffer_safe is None
    assert msg.on_wire.callbacks == []  # an unobserved op arms nothing


def test_buffer_safe_asked_before_send_is_armed_by_the_send():
    sim, req = make_req(api="bget")
    safe = req.buffer_safe  # bget parks on it before the engine sends
    assert not safe.triggered
    msg = _Wire(sim)
    req.reuse_point(msg)
    msg.on_wire.succeed(msg)
    sim.run()
    assert safe.processed and req.buffer_safe is safe


def test_buffer_safe_asked_while_in_flight_arms_on_the_message():
    sim, req = make_req()
    msg = _Wire(sim)
    req.reuse_point(msg)
    safe = req.buffer_safe
    assert not safe.triggered and len(msg.on_wire.callbacks) == 1
    msg.on_wire.succeed(msg)
    sim.run()
    assert safe.triggered


def test_buffer_safe_asked_after_the_reuse_point_is_already_processed():
    sim, req = make_req()
    msg = _Wire(sim)
    req.reuse_point(msg)
    msg.on_wire.succeed(msg)  # nobody waited: processed, never queued
    assert req.buffer_safe.processed
    sim2, acked = make_req()
    acked.mark_buffer_safe()  # BufferAck / SERVER_DOWN path
    acked.mark_buffer_safe()  # idempotent
    assert acked.buffer_safe.processed


def test_retry_keeps_the_first_message_and_tolerates_a_fired_event():
    sim, req = make_req(api="bset")
    safe = req.buffer_safe
    first, retry = _Wire(sim), _Wire(sim)
    req.reuse_point(first)
    req.reuse_point(retry)
    first.on_wire.succeed(first)
    retry.on_wire.succeed(retry)  # second arm finds it already triggered
    sim.run()
    assert safe.processed and req._wire_msg is first


def _iset_with_ack(read_early):
    """One ``iset`` on an early-ack server; ``buffer_safe`` is read right
    after the call returns (``read_early``) or after ``wait``. Returns
    the BufferAck's message, the instant ``buffer_safe`` triggered
    (None: it was already processed when read) and the request."""
    from unittest import mock

    from repro import build_cluster, profiles
    from repro.net.fabric import NIC
    from repro.server.protocol import BufferAck
    from repro.units import KB as _KB, MB as _MB

    acks = []
    transmit = NIC.transmit

    def spy(nic, dst, nbytes, payload=None, *args, **kwargs):
        msg = transmit(nic, dst, nbytes, payload, *args, **kwargs)
        if isinstance(getattr(payload, "payload", None), BufferAck):
            acks.append(msg)
        return msg

    cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                            server_mem=8 * _MB, ssd_limit=16 * _MB)
    client, sim = cluster.clients[0], cluster.sim
    out = {}

    def app():
        req = yield from client.iset(b"k", 4 * _KB)
        if read_early:
            safe = req.buffer_safe
            assert not safe.triggered  # the ack has not even been sent
            yield safe
            out["safe_at"] = sim.now
        yield from client.wait(req)
        if not read_early:
            assert req.buffer_safe.processed
        out["req"] = req

    with mock.patch.object(NIC, "transmit", spy):
        sim.run(until=sim.spawn(app()))
    (ack,) = acks
    return ack, out.get("safe_at"), out["req"]


def test_iset_buffer_safe_read_after_completion_is_already_processed():
    ack, safe_at, req = _iset_with_ack(read_early=False)
    assert safe_at is None and ack.delivered_at <= req.t_complete


def test_iset_buffer_safe_read_before_the_ack_triggers_when_it_lands():
    ack, safe_at, req = _iset_with_ack(read_early=True)
    assert safe_at == ack.delivered_at < req.t_complete


def test_latency_and_overlap():
    _, req = make_req()
    req.t_issue = 1.0
    req.t_complete = 3.0
    req.blocked_time = 0.5
    assert req.latency == pytest.approx(2.0)
    assert req.overlap_fraction == pytest.approx(0.75)


def test_overlap_clamped():
    _, req = make_req()
    req.t_issue = 1.0
    req.t_complete = 2.0
    req.blocked_time = 5.0  # over-accounted: clamp, don't go negative
    assert req.overlap_fraction == 0.0


def test_overlap_zero_lifetime():
    _, req = make_req()
    req.t_issue = req.t_complete = 1.0
    assert req.overlap_fraction == 0.0


def test_repr_mentions_api_and_key():
    _, req = make_req()
    assert "iget" in repr(req)
    assert "k" in repr(req)


def test_oprecord_from_req_copies_everything():
    _, req = make_req(op="set", api="bset", value_length=2048)
    req.status = "STORED"
    req.t_issue, req.t_complete = 0.0, 1.0
    req.blocked_time = 0.25
    req.stages["slab_alloc"] = 0.1
    req.server_index = 3
    rec = OpRecord.from_req(req)
    assert rec.op == "set" and rec.api == "bset"
    assert rec.value_length == 2048
    assert rec.server_index == 3
    assert rec.stages == {"slab_alloc": 0.1}
    assert rec.overlap_fraction == pytest.approx(0.75)
    # Mutating the req afterwards must not affect the record.
    req.stages["slab_alloc"] = 9.9
    assert rec.stages["slab_alloc"] == 0.1


# -- ReqResult: the uniform completion view ---------------------------------


def test_result_pending_before_completion():
    from repro.client import ReqResult  # public facade export

    _, req = make_req()
    res = req.result()
    assert isinstance(res, ReqResult)
    assert res.pending and not res.ok
    assert res.status == "PENDING"
    assert res.latency == 0.0


def test_result_after_completion():
    _, req = make_req(op="set", api="bset", value_length=2048)
    req.status = "STORED"
    req.t_issue, req.t_complete = 1.0, 3.0
    req.blocked_time = 0.5
    req.server_index = 2
    req.cas_token = 7
    req.complete.succeed(None)
    res = req.result()
    assert res.ok and not res.pending
    assert res.op == "set" and res.api == "bset"
    assert res.latency == pytest.approx(2.0)
    assert res.blocked_time == pytest.approx(0.5)
    assert res.server_index == 2 and res.cas_token == 7


def test_result_ok_folds_status_zoo():
    from repro.client.request import ReqResult

    def res(status):
        return ReqResult(op="x", api="x", status=status, value_length=0,
                         latency=0.0, blocked_time=0.0)

    assert all(res(s).ok for s in ("STORED", "HIT", "DELETED", "TOUCHED"))
    assert not any(res(s).ok for s in
                   ("MISS", "NOT_STORED", "EXISTS", "NOT_FOUND",
                    "SERVER_DOWN", "PENDING"))


def test_result_is_immutable_snapshot():
    _, req = make_req()
    req.status = "HIT"
    req.complete.succeed(None)
    res = req.result()
    with pytest.raises(Exception):
        res.status = "MISS"  # frozen dataclass
    req.status = "MISS"
    assert res.status == "HIT"


def test_result_uniform_across_apis():
    """The point of the facade: blocking get, nonb iget, and bget all
    read back through the same result() shape."""
    from repro import build_cluster, profiles
    from repro.units import MB as _MB

    cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                            server_mem=8 * _MB, ssd_limit=16 * _MB)
    client = cluster.clients[0]
    sim = cluster.sim
    out = {}

    def app(sim):
        s = yield from client.set(b"k", 1024)
        g = yield from client.get(b"k")
        i = yield from client.iget(b"k")
        yield from client.wait(i)
        b = yield from client.bget(b"k")
        yield from client.wait(b)
        out["results"] = [s.result(), g.result(), i.result(), b.result()]

    sim.run(until=sim.spawn(app(sim)))
    s, g, i, b = out["results"]
    assert s.ok and s.status == "STORED"
    assert g.ok and i.ok and b.ok
    assert {g.status, i.status, b.status} == {"HIT"}
    assert g.value_length == i.value_length == b.value_length == 1024
    for r in (g, i, b):
        assert r.latency > 0 and r.server_index == 0

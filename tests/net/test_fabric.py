"""Tests for the fabric / NIC transfer machinery."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fabric import Fabric
from repro.net.params import FDR_RDMA, LinkParams
from repro.obs.api import Observability
from repro.sim import SimulationError, Simulator
from repro.units import KB, MB, US


def make_pair(params=FDR_RDMA):
    sim = Simulator()
    fabric = Fabric(sim)
    a = fabric.node("a").nic(params)
    b = fabric.node("b").nic(params)
    return sim, a, b


def test_nodes_are_cached_by_name():
    sim = Simulator()
    fabric = Fabric(sim)
    assert fabric.node("x") is fabric.node("x")
    assert fabric.node("x") is not fabric.node("y")
    assert set(fabric.nodes) == {"x", "y"}


def test_nic_cached_per_transport():
    sim = Simulator()
    fabric = Fabric(sim)
    node = fabric.node("n")
    from repro.net.params import FDR_IPOIB

    assert node.nic(FDR_RDMA) is node.nic(FDR_RDMA)
    assert node.nic(FDR_RDMA) is not node.nic(FDR_IPOIB)


def test_transfer_time_matches_model():
    sim, a, b = make_pair()
    msg = a.transmit(b, 32 * KB)
    sim.run(until=msg.delivered)
    expected = (FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(32 * KB)
                + FDR_RDMA.latency)
    assert sim.now == pytest.approx(expected, rel=1e-9)


def test_on_wire_precedes_delivery_by_latency():
    sim, a, b = make_pair()
    msg = a.transmit(b, 1 * MB)
    sim.run(until=msg.on_wire)
    t_wire = sim.now
    sim.run(until=msg.delivered)
    assert sim.now - t_wire == pytest.approx(FDR_RDMA.latency, rel=1e-9)


def test_tx_serializes_concurrent_messages():
    sim, a, b = make_pair()
    m1 = a.transmit(b, 1 * MB)
    m2 = a.transmit(b, 1 * MB)
    sim.run(until=m1.on_wire)
    t1 = sim.now
    sim.run(until=m2.on_wire)
    t2 = sim.now
    one = FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(1 * MB)
    assert t1 == pytest.approx(one, rel=1e-9)
    assert t2 == pytest.approx(2 * one, rel=1e-9)


def test_different_nics_do_not_contend():
    sim = Simulator()
    fabric = Fabric(sim)
    a = fabric.node("a").nic(FDR_RDMA)
    b = fabric.node("b").nic(FDR_RDMA)
    c = fabric.node("c").nic(FDR_RDMA)
    m1 = a.transmit(c, 1 * MB)
    m2 = b.transmit(c, 1 * MB)
    sim.run()
    assert m1.delivered.value.nbytes == 1 * MB
    # Both finish at the same time: no shared resource between a and b.
    one = FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(1 * MB) + FDR_RDMA.latency
    assert sim.now == pytest.approx(one, rel=1e-9)


def test_traffic_accounting():
    sim, a, b = make_pair()
    a.transmit(b, 10 * KB)
    a.transmit(b, 20 * KB)
    sim.run()
    assert a.bytes_sent == 30 * KB
    assert a.messages_sent == 2
    assert b.bytes_sent == 0


def test_zero_byte_message_costs_cpu_and_latency_only():
    sim, a, b = make_pair()
    msg = a.transmit(b, 0)
    sim.run(until=msg.delivered)
    assert sim.now == pytest.approx(FDR_RDMA.cpu_send + FDR_RDMA.latency, rel=1e-9)


def test_payload_rides_along():
    sim, a, b = make_pair()
    marker = {"op": "set"}
    msg = a.transmit(b, 128, payload=marker)
    sim.run()
    assert msg.payload is marker
    assert msg.delivered.value is msg


class TestLazyMilestones:
    """Both instants of a message are numbers fixed at submit; its
    delivery is the one event it costs, and ``on_wire`` / ``delivered``
    are timers made for whoever asks."""

    def test_unobserved_message_costs_one_event_and_no_milestone(self):
        sim, a, b = make_pair()
        msg = a.transmit(b, 4 * KB)
        assert msg.wire_at == FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(4 * KB)
        assert msg.delivered_at == msg.wire_at + FDR_RDMA.latency
        sim.run()
        assert sim.events_processed == 1  # the delivery — nothing else
        assert sim.now == msg.delivered_at
        assert msg._on_wire is None and msg._delivered is None

    def test_delivered_message_is_freed_without_the_collector(self):
        # Simulator.run() pauses the cyclic collector, so a message that
        # sat in a reference cycle with its timer would pile up per run.
        sim, a, b = make_pair()
        payload = type("Payload", (), {})()  # dies with its message
        ref = weakref.ref(payload)
        a.transmit(b, 4 * KB, payload=payload)
        del payload
        gc.disable()
        try:
            sim.run()
            assert ref() is None
        finally:
            gc.enable()

    def test_event_asked_for_before_the_milestone_triggers_at_it(self):
        sim, a, b = make_pair()
        msg = a.transmit(b, 4 * KB)
        seen = []
        msg.on_wire.callbacks.append(lambda ev: seen.append((sim.now, ev.value)))
        assert msg.on_wire is msg.on_wire  # materialised once
        sim.run()
        assert seen == [(msg.wire_at, msg)]
        assert sim.events_processed == 2  # the observed on_wire is a timer

    def test_event_asked_for_after_the_milestone_is_already_processed(self):
        sim, a, b = make_pair()
        msg = a.transmit(b, 4 * KB)
        sim.run()
        before = sim.events_processed
        assert msg.on_wire.processed and msg.on_wire.value is msg
        assert msg.delivered.processed and msg.delivered.value is msg
        assert msg.on_wire is msg.on_wire  # materialised once
        assert sim.run(until=msg.delivered) is msg
        assert sim.events_processed == before

    def test_on_wire_asked_for_between_the_two_instants(self):
        sim, a, b = make_pair()
        msg = a.transmit(b, 4 * KB)
        sim.run(until=msg.wire_at + 0.5 * FDR_RDMA.latency)
        assert msg.on_wire.processed and not msg.delivered.processed
        assert sim.run(until=msg.delivered) is msg
        assert sim.now == msg.delivered_at
        assert sim.events_processed == 2  # the delivery and its observer


class TestTransmitClock:
    """The transmit side against its closed form: a FIFO pipe whose
    service times are known at arrival (the Lindley recursion)."""

    def test_queued_message_waits_for_the_pipe_not_for_an_event(self):
        sim, a, b = make_pair()
        one = FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(1 * MB)
        m1 = a.transmit(b, 1 * MB)
        m2 = a.transmit(b, 1 * MB)
        assert (m1.wire_at, m2.wire_at) == (one, one + one)
        assert a.busy_until == m2.wire_at
        sim.run()
        # An idle pipe starts at the submit instant, not at busy_until.
        m3 = a.transmit(b, 1 * MB)
        assert m3.wire_at == sim.now + one
        assert sim.events_processed == 2

    def test_link_degrade_applies_from_the_next_submit_on(self):
        slow = FDR_RDMA.degraded(4.0)
        sim, a, b = make_pair()
        busy, slow_busy = (p.cpu_send + p.serialize_time(64 * KB)
                           for p in (FDR_RDMA, slow))
        m1 = a.transmit(b, 64 * KB)
        m2 = a.transmit(b, 64 * KB)
        a.params = slow  # what faults.link_degrade does, mid-burst
        m3 = a.transmit(b, 64 * KB)
        assert m1.wire_at == busy and m2.wire_at == busy + busy
        assert (m1.delivered_at, m2.delivered_at) == (
            m1.wire_at + FDR_RDMA.latency, m2.wire_at + FDR_RDMA.latency)
        # The third queues behind the first two, at the new rate.
        assert m3.wire_at == m2.wire_at + slow_busy
        assert m3.delivered_at == m3.wire_at + slow.latency
        arrivals = []
        b.deliver = lambda msg: arrivals.append((sim.now, msg))
        sim.run()
        assert arrivals == [(m.delivered_at, m) for m in (m1, m2, m3)]

    @settings(max_examples=80, deadline=None)
    @given(
        links=st.lists(st.tuples(
            st.sampled_from([0.0, 0.5 * US, 1.7 * US]),    # latency
            st.sampled_from([0.0, 0.3 * US]),              # cpu_send
            st.sampled_from([float("inf"), 1e9, 6e9])),    # bandwidth
            min_size=1, max_size=3),
        burst=st.lists(st.tuples(
            st.integers(0, 2),                             # source NIC
            st.sampled_from([0.0, 0.0, 0.1 * US, 1 * US, 25 * US]),  # gap
            st.sampled_from([0, 64, 4 * KB, 4 * KB, 32 * KB])),      # nbytes
            min_size=1, max_size=40))
    def test_bursts_follow_the_lindley_recursion(self, links, burst):
        sim = Simulator()
        fabric = Fabric(sim)
        sources = [
            fabric.node(f"src{i}").nic(LinkParams(
                name=f"link{i}", latency=latency, bandwidth=bandwidth,
                cpu_send=cpu_send, cpu_recv=0.0))
            for i, (latency, cpu_send, bandwidth) in enumerate(links)]
        dst = fabric.node("dst").nic(FDR_RDMA)
        arrivals = []
        dst.deliver = lambda msg: arrivals.append((sim.now, msg))
        sent = []

        def submit():
            for src, gap, nbytes in burst:
                if gap:
                    yield sim.timeout(gap)
                nic = sources[src % len(sources)]
                sent.append((sim.now, nic.transmit(dst, nbytes)))

        sim.spawn(submit())
        sim.run()

        pipe_idle = {nic: 0.0 for nic in sources}
        for submitted, msg in sent:
            nic, p = msg.src, msg.src.params
            busy = p.cpu_send + p.serialize_time(msg.nbytes)
            assert msg.wire_at == max(submitted, pipe_idle[nic]) + busy
            assert msg.delivered_at == msg.wire_at + p.latency
            pipe_idle[nic] = msg.wire_at
        # Every message arrives, at its instant; ties pop in submit
        # order, which also makes each NIC's deliveries FIFO.
        order = {id(msg): i for i, (_t, msg) in enumerate(sent)}
        assert arrivals == sorted(
            ((msg.delivered_at, msg) for _t, msg in sent),
            key=lambda a: (a[0], order[id(a[1])]))
        # One event per message, plus the submitter's own (its start
        # and one per sleep).
        sleeps = sum(1 for _src, gap, _n in burst if gap)
        assert sim.events_processed == len(burst) + 1 + sleeps

    def test_counters_are_counted_at_submit_and_agree_at_quiesce(self):
        sim, a, b = make_pair()
        on_wire = [0, 0]

        def count(ev):
            on_wire[0] += ev.value.nbytes
            on_wire[1] += 1

        for nbytes in (10 * KB, 20 * KB, 512):
            a.transmit(b, nbytes).on_wire.callbacks.append(count)
        assert (a.bytes_sent, a.messages_sent) == (30 * KB + 512, 3)
        assert on_wire == [0, 0]
        sim.run()
        # What the old at-wire accounting would have read once drained.
        assert on_wire == [a.bytes_sent, a.messages_sent]


def test_registry_metrics_and_tx_spans_keep_their_meaning():
    sim = Simulator()
    obs = Observability(sim, metrics=True, trace=True)
    fabric = Fabric(sim, obs=obs)
    a = fabric.node("a").nic(FDR_RDMA)
    b = fabric.node("b").nic(FDR_RDMA)
    one = FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(1 * MB)
    msgs = [a.transmit(b, 1 * MB) for _ in range(3)]

    def value(name):
        return obs.registry.flatten()[f'{name}{{link="rdma-fdr",node="a"}}']

    # Counted at submit; the wait is what each message will queue for.
    assert value("nic_bytes_sent") == 3 * MB
    assert value("nic_messages_sent") == 3
    wait, = obs.registry.histograms(lambda m: m.labels["node"] == "a")
    assert (wait.count, wait.min, wait.max) == (3, 0.0, msgs[1].wire_at)
    assert wait.total == msgs[0].wire_at + msgs[1].wire_at
    # Backlog: messages queued or serializing, computed when read.
    assert value("nic_tx_backlog") == 3
    sim.run(until=msgs[0].wire_at + 0.5 * one)
    assert value("nic_tx_backlog") == 2
    sim.run()
    assert value("nic_tx_backlog") == 0
    assert value("nic_bytes_sent") == a.bytes_sent == 3 * MB
    # One complete span per message, end to end on the NIC's pipe.
    spans = [e for e in obs.tracer.events if e["name"] == "tx"]
    assert [(e["ph"], e["pid"], e["tid"], e["args"]) for e in spans] == \
        [("X", "net", "a/rdma-fdr", {"bytes": 1 * MB})] * 3
    assert [e["ts"] for e in spans] == [0.0, msgs[0].wire_at, msgs[1].wire_at]
    assert [e["ts"] + e["dur"] for e in spans] == pytest.approx(
        [m.wire_at for m in msgs], rel=1e-12)


class TestSendInstant:
    """A message handed over ahead of its send instant ``at`` is a
    message sent at ``at``: it starts, is timed and is counted from
    there."""

    def test_clocked_message_starts_at_its_send_instant(self):
        sim, a, b = make_pair()
        one = FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(4 * KB)
        at = 3 * US
        msg = a.transmit(b, 4 * KB, at=at)
        assert (msg.at, msg.wire_at) == (at, at + one)
        assert msg.delivered_at == msg.wire_at + FDR_RDMA.latency
        # The next one queues behind it, as if it were sent at ``at`` too.
        assert a.transmit(b, 4 * KB, at=at).wire_at == (at + one) + one
        arrivals = []
        b.deliver = lambda m: arrivals.append(sim.now)
        sim.run()
        assert arrivals[0] == msg.delivered_at
        # Its delivery timer, and a milestone asked for before the send
        # instant, are posted at the send instant, where a message sent
        # then would have posted them.
        late = a.transmit(b, 4 * KB, at=sim.now + at)
        on_wire = late.on_wire
        posted = {entry[3]: entry[1] for entry in sim._queue}
        assert set(posted.values()) == {late.at} and on_wire in posted

    def test_backlog_and_tx_wait_count_from_the_send_instant(self):
        sim = Simulator()
        obs = Observability(sim, metrics=True)
        fabric = Fabric(sim, obs=obs)
        a = fabric.node("a").nic(FDR_RDMA)
        b = fabric.node("b").nic(FDR_RDMA)
        one = FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(1 * MB)
        now_msg = a.transmit(b, 1 * MB)
        later = a.transmit(b, 1 * MB, at=0.5 * one)

        def backlog():
            return obs.registry.flatten()[
                'nic_tx_backlog{link="rdma-fdr",node="a"}']

        # Not sent yet: only the first message is in the backlog.
        assert backlog() == 1
        sim.run(until=0.5 * one)
        assert backlog() == 2
        sim.run(until=now_msg.wire_at)
        assert backlog() == 1
        sim.run()
        assert backlog() == 0
        wait, = obs.registry.histograms(lambda m: m.labels["node"] == "a")
        # The clocked message waited from its send instant to the pipe.
        assert (wait.count, wait.min, wait.max) == (2, 0.0,
                                                    now_msg.wire_at - later.at)

    def test_params_swap_refused_while_a_clocked_message_is_unsent(self):
        sim, a, b = make_pair()
        slow = FDR_RDMA.degraded(4.0)
        a.transmit(b, 4 * KB, at=2 * US)
        with pytest.raises(SimulationError, match="still unsent"):
            a.params = slow
        sim.run(until=2 * US)
        a.params = slow  # sent now: the swap applies from here on
        assert a.params is slow


class TestLinkParams:
    def test_serialize_time_zero_for_empty(self):
        assert FDR_RDMA.serialize_time(0) == 0.0

    def test_segmentation_overhead(self):
        p = LinkParams(name="t", latency=0, bandwidth=1e9, cpu_send=0,
                       cpu_recv=0, mtu=1024, per_segment_overhead=1 * US)
        # 2.5 KB -> 3 segments
        assert p.serialize_time(2560) == pytest.approx(2560 / 1e9 + 3 * US)

    def test_bandwidth_dominates_large_messages(self):
        t_small = FDR_RDMA.serialize_time(1 * KB)
        t_large = FDR_RDMA.serialize_time(1 * MB)
        assert t_large > 100 * t_small

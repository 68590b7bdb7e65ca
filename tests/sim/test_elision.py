"""Every queued event has an observer, and a hand-off inside one
simulated instant is a call.

``succeed()`` on an event nobody waits for marks it processed at once
and queues nothing; request-style events (store getters, claims,
conditions, timeouts) keep their one lane hop even when already
satisfied, because that hop fixes the caller's place in same-instant
order. A :class:`Mailbox` has one producer side and interchangeable
consumers, so it hands over directly: ``put`` runs a parked consumer
before it returns, ``get`` on a buffered item is already processed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Mailbox,
    PriorityStore,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


@pytest.fixture
def sim():
    return Simulator()


def _marker(sim, log, tag):
    """Queue one observed event at the current instant that logs
    ``tag`` when popped: a ruler for 'how many hops later'."""
    ev = sim.event()
    ev.callbacks.append(lambda _ev: log.append(tag))
    ev.succeed()


# -- the rule ---------------------------------------------------------------


def test_succeed_without_waiter_is_processed_and_readable(sim):
    ev = sim.event()
    assert ev.succeed(41) is ev
    assert ev.triggered and ev.processed and ev.ok and ev.value == 41
    assert sim.peek() == float("inf")  # nothing was queued
    sim.run()
    assert sim.events_processed == 0
    with pytest.raises(SimulationError):
        ev.succeed(42)  # still a one-shot


def test_succeed_with_waiter_is_queued_and_popped_once(sim):
    seen = []
    ev = sim.event()
    ev.callbacks.append(lambda e: seen.append(e.value))
    ev.succeed("x")
    assert ev.triggered and not ev.processed and seen == []
    sim.run()
    assert seen == ["x"] and sim.events_processed == 1


def test_late_yield_on_elided_event_resumes_inline_with_its_value(sim):
    ev = sim.event()
    got = []

    def late():
        yield sim.timeout(5.0)
        ev_value = yield ev  # triggered at t=2 with nobody waiting
        got.append((sim.now, ev_value))

    def trigger():
        yield sim.timeout(2.0)
        ev.succeed("early")

    sim.spawn(late())
    sim.spawn(trigger())
    sim.run()
    assert got == [(5.0, "early")]
    # 2 Initialize + 2 timeouts; neither ev nor the two unobserved
    # process-end events were ever queued.
    assert sim.events_processed == 4


def test_fail_without_waiter_still_raises_from_run(sim):
    boom = KeyError("nobody was listening")
    ev = sim.event()
    ev.fail(boom)
    assert ev.triggered and not ev.processed  # always queued
    with pytest.raises(KeyError) as err:
        sim.run()
    assert err.value is boom


def test_unobserved_process_failure_still_raises_from_run(sim):
    def dies():
        yield sim.timeout(1.0)
        raise RuntimeError("unobserved death")

    sim.spawn(dies())
    with pytest.raises(RuntimeError, match="unobserved death"):
        sim.run()


# -- conditions ---------------------------------------------------------------


def test_all_of_and_any_of_over_elided_children(sim):
    a, b = sim.event().succeed("a"), sim.event().succeed("b")
    pending = sim.event()
    assert a.processed and b.processed
    log, out = [], {}

    def waiter():
        _marker(sim, log, "marker")
        out["all"] = yield sim.all_of([a, b])
        log.append("all")
        out["any"] = yield sim.any_of([pending, b])
        log.append("any")
        return sim.now

    assert sim.run(until=sim.spawn(waiter())) == 0.0
    assert out["all"] == {a: "a", b: "b"}
    assert out["any"] == {b: "b"}
    # A condition satisfied at construction still takes its lane hop:
    # the marker queued before it pops first.
    assert log == ["marker", "all", "any"]


def test_condition_sees_child_elided_after_construction(sim):
    a = sim.event()
    cond = sim.all_of([a])

    def waiter():
        return (yield cond)

    p = sim.spawn(waiter())
    a.succeed(7)  # observed by the condition: queued, not elided
    assert not a.processed
    assert sim.run(until=p) == {a: 7}


# -- run(until=...) -----------------------------------------------------------


def test_run_until_an_already_elided_event_returns_its_value(sim):
    ev = sim.event().succeed("done")
    _marker(sim, [], "untouched")
    assert sim.run(until=ev) == "done"
    assert sim.events_processed == 0  # returned without draining anything


def test_run_until_observes_its_event_and_stops_at_its_lane_slot(sim):
    log = []

    def proc():
        yield sim.timeout(1.0)
        _marker(sim, log, "before-end")
        return "result"

    p = sim.spawn(proc())
    assert sim.run(until=p) == "result"
    # run() is p's observer, so p's end was queued behind the marker and
    # the drain stopped exactly there — the marker was not left behind.
    assert log == ["before-end"]
    assert sim.peek() == float("inf")


# -- store requests keep exactly one hop ---------------------------------------


_BOXES = {"store": Store, "priority": PriorityStore}


@pytest.mark.parametrize("kind", sorted(_BOXES))
def test_parked_getter_takes_exactly_one_lane_hop(sim, kind):
    box = _BOXES[kind](sim)
    log = []

    def getter():
        log.append((yield box.get()))

    sim.spawn(getter())
    sim.run()  # parked on the empty container
    before = sim.events_processed
    _marker(sim, log, "m1")
    box.put("item")
    _marker(sim, log, "m2")
    sim.run()
    # One hop: behind what was queued before the put, ahead of what was
    # queued after it.
    assert log == ["m1", "item", "m2"]
    assert sim.events_processed - before == 3  # no per-put event


@pytest.mark.parametrize("kind", sorted(_BOXES))
def test_fresh_satisfied_getter_takes_exactly_one_lane_hop(sim, kind):
    box = _BOXES[kind](sim)
    box.put("item")
    log = []

    def getter():
        _marker(sim, log, "m1")
        ev = box.get()
        assert ev.triggered and not ev.processed  # queued, not elided
        _marker(sim, log, "m2")
        log.append((yield ev))

    sim.spawn(getter())
    sim.run()
    # Same place in same-instant order as the parked getter's.
    assert log == ["m1", "item", "m2"]
    assert sim.events_processed == 4  # Initialize + m1 + getter + m2


# -- a mailbox hands over directly ---------------------------------------------


def test_mailbox_put_runs_the_parked_consumer_before_it_returns(sim):
    box = Mailbox(sim)
    log = []

    def consumer():
        while True:
            log.append((yield box.get()))

    sim.spawn(consumer())
    sim.run()  # parked on the empty box
    before = sim.events_processed
    _marker(sim, log, "queued-before-the-put")
    box.put("item")
    # The consumer ran inside put(): ahead of everything queued at this
    # instant, and it is parked again for the next item.
    assert log == ["item"] and len(box._getters) == 1
    box.put("second")
    assert log == ["item", "second"]
    sim.run()
    assert log == ["item", "second", "queued-before-the-put"]
    assert sim.events_processed - before == 1  # the marker; no hand-off event


def test_mailbox_get_of_a_buffered_item_does_not_yield_to_the_loop(sim):
    box = Mailbox(sim)
    box.put("a")
    box.put("b")
    log = []

    def consumer():
        _marker(sim, log, "marker")
        ev = box.get()
        assert ev.processed and ev.value == "a"
        log.append((yield ev))
        log.append((yield box.get()))

    sim.spawn(consumer())
    sim.run()
    # Both items were taken in the consumer's one turn: the marker it
    # queued first only pops once it is done.
    assert log == ["a", "b", "marker"]
    assert sim.events_processed == 2  # Initialize + marker


def test_mailbox_consumer_that_feeds_its_own_box_does_not_reenter(sim):
    box = Mailbox(sim)
    log, depth = [], [0, 0]  # (current, deepest) nesting of the consumer

    def consumer(tag):
        while True:
            n = yield box.get()
            depth[0] += 1
            depth[1] = max(depth)
            log.append((tag, n))
            if n:
                # A running generator is not parked, so this is buffered
                # or handed to the *other* consumer, never back into this
                # frame (a re-entered generator raises ValueError).
                box.put(n - 1)
            depth[0] -= 1

    a, b = sim.spawn(consumer("a")), sim.spawn(consumer("b"))
    sim.run()
    box.put(50)
    sim.run()
    assert [n for _tag, n in log] == list(range(50, -1, -1))
    assert {tag for tag, _n in log} == {"a", "b"}
    assert a.is_alive and b.is_alive
    # The ping-pong between the two consumers unwinds as it goes: the
    # Python stack never holds more than two nested resumes.
    assert depth[1] <= 2


def test_parked_consumer_runs_and_ends_inside_the_put(sim):
    box = Mailbox(sim)

    def consumer():
        yield box.get()

    def producer():
        yield sim.timeout(1.0)
        box.put("x")  # the parked consumer runs, and ends, inside this call
        assert not parked.is_alive
        return "handed off"

    parked = sim.spawn(consumer())
    assert sim.run(until=sim.spawn(producer())) == "handed off"


#: Zero delays put several calls in one instant; the others collide
#: across processes at a few shared timestamps.
_DELAYS = [0.0, 0.0, 1.0, 2.5]
_calls = st.lists(
    st.tuples(st.sampled_from(_DELAYS), st.sampled_from(["put", "get"])),
    min_size=1, max_size=6)


@given(st.lists(_calls, min_size=2, max_size=4))
@settings(max_examples=80, deadline=None)
def test_mailbox_pairs_fifo_and_resumes_at_the_later_of_put_and_get(program):
    sim = Simulator()
    box = Mailbox(sim)
    puts, gets, resumed = [], [], {}

    def proc(pid, calls):
        for i, (delay, call) in enumerate(calls):
            yield sim.timeout(delay)
            if call == "put":
                puts.append((sim.now, (pid, i)))
                box.put((pid, i))
            else:
                gets.append((sim.now, (pid, i)))
                item = yield box.get()
                resumed[(pid, i)] = (item, sim.now)

    for pid, calls in enumerate(program):
        sim.spawn(proc(pid, calls))
    sim.run()
    # The reference: the k-th put meets the k-th get, whichever came
    # first, and the getter continues at the later of the two calls.
    # A get with no put stays parked for good.
    expected = {getter: (item, max(t_put, t_get))
                for (t_put, item), (t_get, getter) in zip(puts, gets)}
    assert resumed == expected
    assert len(box) == max(0, len(puts) - len(gets))


def test_fresh_resource_grant_and_timeout_are_queued_not_elided(sim):
    res = Resource(sim, capacity=1)
    req = res.request()
    assert req.triggered and not req.processed
    zero = sim.timeout(0.0)
    assert zero.triggered and not zero.processed
    sim.run()
    assert req.processed and zero.processed and sim.events_processed == 2


def test_store_put_admitted_on_the_spot_queues_nothing(sim):
    store = Store(sim, capacity=1)
    first = store.put("a")
    assert first.processed  # room: the notification had no observer
    blocked = store.put("b")
    assert not blocked.triggered  # full: a real wait
    log = []

    def producer():
        yield blocked
        log.append("admitted")

    sim.spawn(producer())
    sim.run()
    assert log == []
    assert store.get().value == "a"
    sim.run()
    assert log == ["admitted"]

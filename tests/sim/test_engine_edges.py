"""Edge-case coverage for the engine beyond the core semantics."""

import pytest

from repro.sim import Resource, Simulator, SimulationError, Store


def test_run_until_failed_event_raises():
    sim = Simulator()

    def doomed(sim):
        yield sim.timeout(1)
        raise ValueError("process died")

    p = sim.spawn(doomed(sim))
    with pytest.raises(ValueError, match="process died"):
        sim.run(until=p)


def test_run_until_event_from_other_sim_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        sim_a.run(until=sim_b.event())


def test_run_until_already_processed_event_returns_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("done")
    sim.run()
    assert sim.run(until=ev) == "done"


def test_condition_with_failed_child_defuses_into_condition():
    sim = Simulator()
    bad = sim.event()
    caught = []

    def waiter(sim):
        good = sim.timeout(1)
        try:
            yield sim.all_of([good, bad])
        except RuntimeError as e:
            caught.append(str(e))

    # Attach the waiter first: a failure nobody observes is an error.
    sim.spawn(waiter(sim))
    bad.fail(RuntimeError("pre-failed"))
    sim.run()
    assert caught == ["pre-failed"]


def test_store_filtered_getter_waits_for_matching_item():
    sim = Simulator()
    store = Store(sim)
    got = []

    def picky(sim):
        item = yield store.get(filter=lambda x: x % 2 == 0)
        got.append((item, sim.now))

    def producer(sim):
        yield sim.timeout(1)
        yield store.put(3)  # no match
        yield sim.timeout(1)
        yield store.put(4)  # match

    sim.spawn(picky(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert got == [(4, 2.0)]
    assert list(store.items) == [3]


def test_resource_fifo_fairness_under_churn():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def worker(sim, tag):
        req = res.request()
        yield req
        order.append(tag)
        yield sim.timeout(1)
        res.release(req)

    for tag in range(10):
        sim.spawn(worker(sim, tag))
    sim.run()
    assert order == list(range(10))


def test_event_failure_after_condition_succeeded_is_untangled():
    sim = Simulator()

    def main(sim):
        t1 = sim.timeout(1, value="a")
        t2 = sim.timeout(5, value="b")
        got = yield sim.any_of([t1, t2])
        assert list(got.values()) == ["a"]
        # t2 still fires later; nothing blows up.
        yield t2

    p = sim.spawn(main(sim))
    sim.run()
    assert p.ok


def test_timeout_value_default_none():
    sim = Simulator()

    def proc(sim):
        v = yield sim.timeout(1)
        assert v is None

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.ok

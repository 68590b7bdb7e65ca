"""Tests for Resource and Store primitives."""

import pytest

from repro.sim import Resource, Simulator, SimulationError, Store


class TestResource:
    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_immediate_grant_under_capacity(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        granted = []

        def proc(sim, tag):
            req = res.request()
            yield req
            granted.append((tag, sim.now))

        sim.spawn(proc(sim, "a"))
        sim.spawn(proc(sim, "b"))
        sim.run()
        assert granted == [("a", 0.0), ("b", 0.0)]
        assert res.in_use == 2

    def test_claim_of_a_free_slot_is_granted_processed(self):
        """``claim`` grants a free slot on the spot: nothing is queued,
        the holder counts at once, and a ``yield`` continues inline."""
        sim = Simulator()
        res = Resource(sim, capacity=1)
        req = res.claim()
        assert req.processed and req.ok and req.granted_at == 0.0
        assert res.in_use == 1 and not sim._lane

    def test_a_queued_claim_waits_fifo_and_takes_the_grant_hop(self):
        """A claim that finds no free slot queues FIFO with requests and
        is granted, on release, through the lane like any request."""
        sim = Simulator()
        res = Resource(sim, capacity=1)
        held = res.claim()
        queued = [res.request(), res.claim()]
        assert not any(r.triggered for r in queued)
        res.release(held)
        first = queued[0]
        assert first.triggered and not first.processed
        assert list(sim._lane) == [first]
        sim.run()
        res.release(first)
        assert list(sim._lane) == [queued[1]]
        sim.run()
        assert queued[1].processed and res.in_use == 1

    def test_fifo_queueing_and_release(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def proc(sim, tag, hold):
            req = res.request()
            yield req
            order.append((tag, sim.now))
            yield sim.timeout(hold)
            res.release(req)

        sim.spawn(proc(sim, "a", 2.0))
        sim.spawn(proc(sim, "b", 1.0))
        sim.spawn(proc(sim, "c", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]

    def test_release_without_hold_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        req = res.request()
        sim.run()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_utilization_counters(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        reqs = [res.request() for _ in range(5)]
        assert res.in_use == 2
        assert res.queue_length == 3
        res.release(reqs[0])
        assert res.in_use == 2
        assert res.queue_length == 2


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        out = []

        def producer(sim):
            yield store.put("x")

        def consumer(sim):
            item = yield store.get()
            out.append(item)

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert out == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        out = []

        def consumer(sim):
            item = yield store.get()
            out.append((item, sim.now))

        def producer(sim):
            yield sim.timeout(5)
            yield store.put("late")

        sim.spawn(consumer(sim))
        sim.spawn(producer(sim))
        sim.run()
        assert out == [("late", 5.0)]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        out = []

        def producer(sim):
            for i in range(5):
                yield store.put(i)

        def consumer(sim):
            for _ in range(5):
                out.append((yield store.get()))

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_capacity_blocks_put(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        times = []

        def producer(sim):
            for i in range(2):
                yield store.put(i)
                times.append(sim.now)

        def consumer(sim):
            yield sim.timeout(3)
            yield store.get()

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert times == [0.0, 3.0]

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_filtered_get(self):
        sim = Simulator()
        store = Store(sim)
        out = []

        def producer(sim):
            yield store.put(("b", 1))
            yield store.put(("a", 2))

        def consumer(sim):
            item = yield store.get(filter=lambda it: it[0] == "a")
            out.append(item)

        sim.spawn(consumer(sim))
        sim.spawn(producer(sim))
        sim.run()
        assert out == [("a", 2)]
        assert list(store.items) == [("b", 1)]

    def test_len_reflects_buffer(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        sim.run()
        assert len(store) == 2

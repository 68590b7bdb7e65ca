"""TTL correctness at the manager: boundary semantics, delete/touch of
expired items, the active expiry sweeper, flush_all, and counter ops.

The three regression classes pin the bugfixes of this change:

* ``TestExpiryBoundary`` — memcached expires at ``now >= expiration``
  (inclusive); the pre-fix code used ``now > expiration`` and served
  items for one extra instant.
* ``test_delete_of_expired_is_not_found`` — deleting a logically
  expired key must answer NOT_FOUND, not ack DELETED.
* ``test_set_expiration_past_deadline_removes`` — touching an item to a
  deadline already in the past must reclaim it immediately, not leave a
  dead item parked in the table.
"""

import pytest

from repro.server.hybrid import COUNTER_VALUE_BYTES, HybridSlabManager
from repro.sim import Simulator
from repro.units import KB, MB

pytestmark = pytest.mark.protocol


def make_mgr(**kw):
    sim = Simulator()
    mgr = HybridSlabManager(sim, mem_limit=2 * MB, **kw)
    return sim, mgr


def drive(sim, gen):
    return sim.run(until=sim.spawn(gen))


class TestExpiryBoundary:
    def test_lookup_at_exact_deadline_misses(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.store(b"k", 1 * KB, expiration=sim.now + 0.5)
            yield sim.timeout(0.5)  # exactly the deadline

        drive(sim, app())
        assert mgr.lookup(b"k") is None
        assert mgr.stats.expired_passive == 1

    def test_lookup_just_before_deadline_hits(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.store(b"k", 1 * KB, expiration=sim.now + 0.5)
            yield sim.timeout(0.4999)

        drive(sim, app())
        assert mgr.lookup(b"k") is not None


class TestExpiredItemOps:
    def test_delete_of_expired_is_not_found(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.store(b"k", 1 * KB, expiration=sim.now + 0.1)
            yield sim.timeout(0.2)

        drive(sim, app())
        assert mgr.delete(b"k") is False
        assert b"k" not in mgr.table  # ... but the corpse was reclaimed

    def test_set_expiration_past_deadline_removes(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.store(b"k", 1 * KB)
            yield sim.timeout(0.1)

        drive(sim, app())
        item = mgr.table[b"k"]
        assert mgr.set_expiration(item, sim.now) is False
        assert b"k" not in mgr.table

    def test_add_over_expired_succeeds(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.store(b"k", 1 * KB, expiration=sim.now + 0.1)
            yield sim.timeout(0.2)
            item, info = yield from mgr.store(b"k", 1 * KB, mode="add")
            assert item is not None and info.status == "STORED"

        drive(sim, app())
        assert mgr.lookup(b"k") is not None

    def test_cas_on_expired_is_not_found(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            item, _ = yield from mgr.store(b"k", 1 * KB,
                                           expiration=sim.now + 0.1)
            token = item.cas
            yield sim.timeout(0.2)
            stored, info = yield from mgr.store(b"k", 1 * KB, mode="cas",
                                                cas_token=token)
            assert stored is None and info.status == "NOT_FOUND"

        drive(sim, app())


class TestSweeper:
    def test_reclaims_without_any_access(self):
        sim, mgr = make_mgr(expiry_interval=0.001)

        def app():
            for i in range(10):
                yield from mgr.store(f"k{i}".encode(), 1 * KB,
                                     expiration=sim.now + 0.01)

        drive(sim, app())
        sim.run()  # must drain: the sweeper parks, never busy-ticks
        assert len(mgr.table) == 0
        assert mgr.stats.expired_active == 10
        assert sim.now >= 0.01

    def test_ttl_free_run_never_starts_sweeper(self):
        sim, mgr = make_mgr()

        def app():
            for i in range(5):
                yield from mgr.store(f"k{i}".encode(), 1 * KB)

        drive(sim, app())
        sim.run()
        assert not mgr._sweeper_started
        assert len(mgr.table) == 5

    def test_budget_bounds_one_tick_but_pass_completes(self):
        sim, mgr = make_mgr(expiry_interval=0.0005, expiry_budget=4)

        def app():
            for i in range(20):
                yield from mgr.store(f"k{i}".encode(), 1 * KB,
                                     expiration=sim.now + 0.01)

        drive(sim, app())
        sim.run()
        assert len(mgr.table) == 0
        assert mgr.stats.expired_active == 20

    def test_sleeps_to_far_deadline(self):
        sim, mgr = make_mgr(expiry_interval=0.001)

        def app():
            yield from mgr.store(b"k", 1 * KB, expiration=sim.now + 5.0)

        drive(sim, app())
        sim.run()
        assert b"k" not in mgr.table
        assert sim.now >= 5.0

    def test_disabled_means_passive_only(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.store(b"k", 1 * KB, expiration=sim.now + 0.01)
            yield sim.timeout(1.0)

        drive(sim, app())
        sim.run()
        assert b"k" in mgr.table          # still parked (dead) ...
        assert mgr.lookup(b"k") is None   # ... reclaimed on access
        assert mgr.stats.expired_active == 0


class TestFlushAll:
    def test_flush_now_invalidates_everything(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            for i in range(3):
                yield from mgr.store(f"k{i}".encode(), 1 * KB)
            yield sim.timeout(0.001)

        drive(sim, app())
        mgr.flush_all()
        for i in range(3):
            assert mgr.lookup(f"k{i}".encode()) is None
        assert mgr.stats.flush_alls == 1

    def test_flush_delayed_takes_effect_at_epoch(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.store(b"k", 1 * KB)
            mgr.flush_all(delay=0.01)
            assert mgr.lookup(b"k") is not None  # before the epoch
            yield sim.timeout(0.01)

        drive(sim, app())
        assert mgr.lookup(b"k") is None

    def test_store_after_epoch_survives(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.store(b"old", 1 * KB)
            yield sim.timeout(0.001)
            mgr.flush_all()
            yield from mgr.store(b"new", 1 * KB)

        drive(sim, app())
        assert mgr.lookup(b"old") is None
        assert mgr.lookup(b"new") is not None

    def test_new_epoch_does_not_resurrect(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.store(b"k", 1 * KB)
            yield sim.timeout(0.001)
            mgr.flush_all()             # epoch passes immediately
            mgr.flush_all(delay=10.0)   # future epoch must not revive k

        drive(sim, app())
        assert mgr.lookup(b"k") is None

    def test_touch_cannot_resurrect_past_flush(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            item, _ = yield from mgr.store(b"k", 1 * KB)
            mgr.flush_all(delay=0.002)
            # Refreshing the TTL does not refresh ``created``.
            assert mgr.set_expiration(item, sim.now + 60.0)
            yield sim.timeout(0.002)

        drive(sim, app())
        assert mgr.lookup(b"k") is None

    def test_sweeper_reclaims_flush_epoch(self):
        sim, mgr = make_mgr(expiry_interval=0.001)

        def app():
            for i in range(6):
                yield from mgr.store(f"k{i}".encode(), 1 * KB)
            yield sim.timeout(0.001)
            mgr.flush_all()

        drive(sim, app())
        sim.run()
        assert len(mgr.table) == 0
        assert mgr.stats.expired_active == 6
        assert mgr._flush_at is None  # epoch proven spent, lazy checks off


class TestCounterOp:
    def test_autocreate_stores_initial(self):
        sim, mgr = make_mgr()
        status, value, item = drive(
            sim, mgr.counter_op(b"c", 5, "incr", initial=7))
        assert (status, value) == ("STORED", 7)  # initial, not initial+delta
        assert item.value_length == COUNTER_VALUE_BYTES

    def test_incr_decr_math_and_tokens(self):
        sim, mgr = make_mgr()
        drive(sim, mgr.counter_op(b"c", 1, "incr", initial=10))
        tok0 = mgr.table[b"c"].cas
        status, value, item = drive(sim, mgr.counter_op(b"c", 3, "incr"))
        assert (status, value) == ("STORED", 13)
        assert item.cas > tok0  # every successful counter op draws a token
        status, value, _ = drive(sim, mgr.counter_op(b"c", 100, "decr"))
        assert (status, value) == ("STORED", 0)  # saturates at zero

    def test_missing_without_initial(self):
        sim, mgr = make_mgr()
        status, value, item = drive(sim, mgr.counter_op(b"c", 1, "incr"))
        assert (status, value, item) == ("NOT_FOUND", 0, None)

    def test_opaque_value_not_numeric(self):
        sim, mgr = make_mgr()
        drive(sim, mgr.store(b"k", 1 * KB))
        status, _, _ = drive(sim, mgr.counter_op(b"k", 1, "incr"))
        assert status == "NOT_NUMERIC"

    def test_incr_on_expired_autocreates(self):
        sim, mgr = make_mgr(active_expiry=False)

        def app():
            yield from mgr.counter_op(b"c", 1, "incr", initial=50,
                                      expiration=sim.now + 0.01)
            yield sim.timeout(0.02)
            return (yield from mgr.counter_op(b"c", 1, "incr", initial=0))

        status, value, _ = drive(sim, app())
        assert (status, value) == ("STORED", 0)  # fresh, not 50+1

    def test_set_overwrites_counter_with_opaque(self):
        sim, mgr = make_mgr()
        drive(sim, mgr.counter_op(b"c", 1, "incr", initial=3))
        drive(sim, mgr.store(b"c", 1 * KB))
        status, _, _ = drive(sim, mgr.counter_op(b"c", 1, "incr"))
        assert status == "NOT_NUMERIC"

"""Property-based tests: page cache counters and residency bounds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.storage.device import BlockDevice
from repro.storage.pagecache import PageCache
from repro.storage.params import PageCacheParams, RAMDISK
from repro.units import KB


@st.composite
def io_programs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["write", "read", "mmap_write",
                                     "discard", "sync"]))
        offset = draw(st.integers(min_value=0, max_value=63)) * 4 * KB
        nbytes = draw(st.integers(min_value=1, max_value=16)) * 4 * KB
        ops.append((kind, offset, nbytes))
    return ops


def check(cache: PageCache) -> None:
    actual_dirty = cache.counted_dirty_pages()
    assert cache.dirty_pages == actual_dirty, "dirty counter desync"
    assert cache.resident_pages <= cache.capacity_pages


@settings(max_examples=60, deadline=None)
@given(io_programs())
def test_counters_and_bounds_hold(ops):
    sim = Simulator()
    dev = BlockDevice(sim, RAMDISK)
    cache = PageCache(sim, dev, PageCacheParams(size_bytes=128 * KB,
                                                dirty_ratio=0.5))

    def driver():
        for kind, offset, nbytes in ops:
            if kind == "write":
                yield from cache.write(offset, nbytes)
            elif kind == "mmap_write":
                yield from cache.write(offset, nbytes, origin="mmap")
            elif kind == "read":
                yield from cache.read(offset, nbytes)
            elif kind == "discard":
                cache.discard(offset, nbytes)
            else:
                yield from cache.sync()
            check(cache)

    sim.run(until=sim.spawn(driver()))
    # Drain: after sync, nothing dirty and the daemon healed nothing.
    sim.run(until=sim.spawn(cache.sync()))
    assert cache.dirty_pages == 0
    assert cache.stats.counter_resyncs == 0


@settings(max_examples=40, deadline=None)
@given(io_programs(), io_programs())
def test_concurrent_programs_keep_counters_consistent(ops_a, ops_b):
    """Two interleaved I/O processes must not desync the dirty counter
    (regression: a read's fill used to clobber concurrent dirty pages)."""
    sim = Simulator()
    dev = BlockDevice(sim, RAMDISK)
    cache = PageCache(sim, dev, PageCacheParams(size_bytes=128 * KB,
                                                dirty_ratio=0.5))

    def driver(ops):
        for kind, offset, nbytes in ops:
            if kind in ("write", "mmap_write"):
                origin = "mmap" if kind == "mmap_write" else "write"
                yield from cache.write(offset, nbytes, origin=origin)
            elif kind == "read":
                yield from cache.read(offset, nbytes)
            elif kind == "discard":
                cache.discard(offset, nbytes)
            else:
                yield from cache.sync()

    pa = sim.spawn(driver(ops_a))
    pb = sim.spawn(driver(ops_b))
    sim.run(until=sim.all_of([pa, pb]))
    check(cache)
    assert cache.stats.counter_resyncs == 0

"""Tests for the direct/cached/mmap I/O schemes (Figure 4 mechanics)."""

import pytest

from repro.sim import BurstClock, Simulator
from repro.storage.device import BlockDevice
from repro.storage.pagecache import PageCache
from repro.storage.params import PageCacheParams, SATA_SSD
from repro.storage.schemes import CachedIO, DirectIO, MmapIO, make_scheme
from repro.units import KB, MB


@pytest.fixture()
def rig():
    sim = Simulator()
    dev = BlockDevice(sim, SATA_SSD)
    cache = PageCache(sim, dev, PageCacheParams(size_bytes=64 * MB))
    return sim, dev, cache


def timed(sim, gen):
    start = sim.now
    sim.run(until=sim.spawn(gen))
    return sim.now - start


class TestDirectIO:
    def test_write_pays_device_time(self, rig):
        sim, dev, _ = rig
        scheme = DirectIO(sim, dev)
        t = timed(sim, scheme.write(0, 1 * MB))
        assert t == pytest.approx(SATA_SSD.write_time(1 * MB), rel=1e-9)

    def test_read_pays_device_time(self, rig):
        sim, dev, _ = rig
        scheme = DirectIO(sim, dev)
        t = timed(sim, scheme.read(0, 32 * KB, BurstClock(sim)))
        assert t == pytest.approx(SATA_SSD.read_time(32 * KB), rel=1e-9)


class TestCachedIO:
    def test_write_much_faster_than_direct(self, rig):
        sim, dev, cache = rig
        scheme = CachedIO(sim, dev, cache)
        t = timed(sim, scheme.write(0, 1 * MB))
        assert t < SATA_SSD.write_time(1 * MB) / 5

    def test_read_after_write_hits_cache(self, rig):
        sim, dev, cache = rig
        scheme = CachedIO(sim, dev, cache)
        timed(sim, scheme.write(0, 64 * KB))
        reads_before = dev.stats.reads
        t = timed(sim, scheme.read(0, 64 * KB, BurstClock(sim)))
        assert dev.stats.reads == reads_before
        assert t < SATA_SSD.read_time(64 * KB) / 5

    def test_cold_read_pays_device(self, rig):
        sim, dev, cache = rig
        scheme = CachedIO(sim, dev, cache)
        t = timed(sim, scheme.read(1 * MB, 32 * KB, BurstClock(sim)))
        assert t >= SATA_SSD.read_latency


class TestMmapIO:
    def test_small_write_beats_cached(self, rig):
        sim, dev, cache = rig
        mm = MmapIO(sim, dev, cache)
        ca = CachedIO(sim, dev, cache)
        t_mmap = timed(sim, mm.write(0, 4 * KB))
        t_cached = timed(sim, ca.write(10 * MB, 4 * KB))
        assert t_mmap < t_cached

    def test_large_write_loses_to_cached_on_fault_cost(self, rig):
        sim, dev, cache = rig
        mm = MmapIO(sim, dev, cache)
        ca = CachedIO(sim, dev, cache)
        t_mmap = timed(sim, mm.write(0, 1 * MB))
        t_cached = timed(sim, ca.write(10 * MB, 1 * MB))
        assert t_cached < t_mmap

    def test_second_touch_has_no_fault_cost(self, rig):
        sim, dev, cache = rig
        mm = MmapIO(sim, dev, cache)
        t_first = timed(sim, mm.write(0, 64 * KB))
        t_second = timed(sim, mm.write(0, 64 * KB))
        assert t_second < t_first


class TestFigure4Shape:
    """The crossover the adaptive allocator exploits."""

    def test_both_buffered_schemes_beat_direct_for_all_sizes(self, rig):
        sim, dev, cache = rig
        for size in (4 * KB, 64 * KB, 1 * MB):
            t_direct = timed(sim, DirectIO(sim, dev).write(0, size))
            t_cached = timed(sim, CachedIO(sim, dev, cache).write(20 * MB, size))
            t_mmap = timed(sim, MmapIO(sim, dev, cache).write(40 * MB, size))
            assert t_cached < t_direct
            assert t_mmap < t_direct

    def test_crossover_exists_between_mmap_and_cached(self, rig):
        sim, dev, cache = rig
        t_mmap_small = timed(sim, MmapIO(sim, dev, cache).write(0, 4 * KB))
        t_cached_small = timed(sim, CachedIO(sim, dev, cache).write(60 * MB, 4 * KB))
        t_mmap_large = timed(sim, MmapIO(sim, dev, cache).write(10 * MB, 1 * MB))
        t_cached_large = timed(sim, CachedIO(sim, dev, cache).write(30 * MB, 1 * MB))
        assert t_mmap_small < t_cached_small
        assert t_cached_large < t_mmap_large


class TestFactory:
    def test_make_scheme_variants(self, rig):
        sim, dev, cache = rig
        assert isinstance(make_scheme("direct", sim, dev), DirectIO)
        assert isinstance(make_scheme("cached", sim, dev, cache), CachedIO)
        assert isinstance(make_scheme("mmap", sim, dev, cache), MmapIO)

    def test_make_scheme_requires_cache_for_buffered(self, rig):
        sim, dev, _ = rig
        with pytest.raises(ValueError):
            make_scheme("cached", sim, dev, None)
        with pytest.raises(ValueError):
            make_scheme("bogus", sim, dev, None)

    def test_discard_clears_cache_state(self, rig):
        sim, dev, cache = rig
        scheme = CachedIO(sim, dev, cache)
        timed(sim, scheme.write(0, 64 * KB))
        scheme.discard(0, 64 * KB)
        assert not cache.contains(0, 4 * KB)
        # DirectIO discard is a no-op but must exist.
        DirectIO(sim, dev).discard(0, 64 * KB)

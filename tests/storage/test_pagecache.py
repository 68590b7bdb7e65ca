"""Tests for the page cache: residency, write-back, throttling."""

import gc
import tracemalloc

import pytest

from repro.sim import Simulator
from repro.storage.device import BlockDevice
from repro.storage.pagecache import PageCache, _cluster_runs
from repro.storage.params import PageCacheParams, SATA_SSD
from repro.units import KB, MB


def make_cache(size_bytes=1 * MB, dirty_ratio=0.5, **kw):
    sim = Simulator()
    dev = BlockDevice(sim, SATA_SSD)
    params = PageCacheParams(size_bytes=size_bytes, dirty_ratio=dirty_ratio, **kw)
    return sim, dev, PageCache(sim, dev, params)


def run_gen(sim, gen):
    """Drive a cache generator to completion, returning its value."""
    return sim.run(until=sim.spawn(gen))


def test_write_is_memcpy_speed_not_device_speed():
    sim, dev, cache = make_cache()
    start = sim.now
    run_gen(sim, cache.write(0, 64 * KB))
    elapsed = sim.now - start
    assert elapsed < SATA_SSD.write_time(64 * KB) / 10


def test_write_marks_pages_dirty_then_writeback_cleans():
    sim, dev, cache = make_cache()
    run_gen(sim, cache.write(0, 64 * KB))
    assert cache.dirty_pages == 16
    run_gen(sim, cache.sync())
    assert cache.dirty_pages == 0
    assert dev.stats.bytes_written == 64 * KB


def test_read_hit_costs_memcpy_only():
    sim, dev, cache = make_cache()
    run_gen(sim, cache.write(0, 64 * KB))
    reads_before = dev.stats.reads
    missed = run_gen(sim, cache.read(0, 64 * KB))
    assert missed == 0
    assert dev.stats.reads == reads_before


def test_read_miss_fetches_from_device():
    sim, dev, cache = make_cache()
    missed = run_gen(sim, cache.read(0, 64 * KB))
    assert missed == 64 * KB
    assert dev.stats.reads >= 1
    assert dev.stats.bytes_read == 64 * KB
    # Now resident:
    assert cache.contains(0, 64 * KB)


def test_partial_hit_reads_only_missing_runs():
    sim, dev, cache = make_cache()
    run_gen(sim, cache.write(0, 16 * KB))  # pages 0-3 resident
    missed = run_gen(sim, cache.read(0, 32 * KB))  # pages 0-7
    assert missed == 16 * KB


def test_eviction_bounded_residency():
    sim, dev, cache = make_cache(size_bytes=64 * KB)  # 16 pages
    run_gen(sim, cache.read(0, 64 * KB))
    run_gen(sim, cache.read(1 * MB, 64 * KB))
    assert cache.resident_pages <= 16
    assert not cache.contains(0, 64 * KB)


def test_dirty_throttling_blocks_writers():
    sim, dev, cache = make_cache(size_bytes=64 * KB, dirty_ratio=0.25)
    for i in range(8):
        run_gen(sim, cache.write(i * 16 * KB, 16 * KB))
    assert cache.stats.throttle_events > 0


def test_discard_drops_dirty_pages():
    sim, dev, cache = make_cache()
    run_gen(sim, cache.write(0, 64 * KB))
    cache.discard(0, 64 * KB)
    assert cache.dirty_pages == 0
    assert not cache.contains(0, 4 * KB)


def test_sync_flushes_everything():
    sim, dev, cache = make_cache()
    run_gen(sim, cache.write(0, 128 * KB))
    run_gen(sim, cache.sync())
    assert cache.dirty_pages == 0
    assert dev.stats.bytes_written == 128 * KB


def test_mmap_origin_writes_back_in_smaller_clusters():
    sim1, dev1, cache1 = make_cache(size_bytes=8 * MB)
    run_gen(sim1, cache1.write(0, 1 * MB, origin="write"))
    run_gen(sim1, cache1.sync())

    sim2, dev2, cache2 = make_cache(size_bytes=8 * MB)
    run_gen(sim2, cache2.write(0, 1 * MB, origin="mmap"))
    run_gen(sim2, cache2.sync())

    # Same bytes, more (smaller) device ops for the mmap origin.
    assert dev1.stats.bytes_written == dev2.stats.bytes_written == 1 * MB
    assert dev2.stats.writes > dev1.stats.writes


def test_a_parked_write_back_daemon_holds_no_batch():
    """Once every dirty page is written back the daemon parks on its
    wakeup; its frame keeps no batch of ``(page, state)`` pairs alive."""
    sim, dev, cache = make_cache()
    run_gen(sim, cache.write(0, 64 * KB))
    run_gen(sim, cache.sync())
    assert dev.stats.writes > 0
    (resume,) = cache._wakeup.callbacks
    daemon = resume.__self__._gen
    assert daemon.gi_code.co_name == "_writeback_daemon"
    assert "batch" not in daemon.gi_frame.f_locals


def test_hit_rate_stat():
    sim, dev, cache = make_cache()
    run_gen(sim, cache.write(0, 64 * KB))
    run_gen(sim, cache.read(0, 64 * KB))
    run_gen(sim, cache.read(10 * MB, 64 * KB))
    assert 0.0 < cache.stats.hit_rate < 1.0


def test_cluster_runs_helper():
    assert _cluster_runs([], 4096) == []
    assert _cluster_runs([0, 1, 2], 4096) == [3 * 4096]
    assert _cluster_runs([0, 2, 3, 9], 4096) == [4096, 2 * 4096, 4096]


def resident_bytes(pages):
    """Traced bytes held by a page cache holding ``pages`` resident
    pages, written by ``write`` and ``mmap`` and then written back."""
    gc.collect()
    tracemalloc.start()
    try:
        sim, _dev, cache = make_cache(size_bytes=64 * MB, dirty_ratio=1.0)
        half = pages // 2 * 4 * KB
        run_gen(sim, cache.write(0, half, origin="write"))
        run_gen(sim, cache.write(half, half, origin="mmap"))
        run_gen(sim, cache.sync())
        assert cache.resident_pages == pages // 2 * 2
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(tracemalloc.is_tracing(),
                    reason="needs tracemalloc to itself")
def test_memory_per_resident_page_is_bounded():
    """What one more resident page costs: a state byte and two 4-byte
    LRU links in flat arrays, and no Python object (~10 B on CPython
    3.11, with the arrays' growth slack)."""
    resident_bytes(2048)  # one-time allocations of a first build
    per_page = (resident_bytes(6144) - resident_bytes(2048)) / 4096
    assert per_page < 24, per_page

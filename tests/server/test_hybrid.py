"""Tests for the hybrid slab manager: spill, read-back, eviction."""

import gc
import inspect
import tracemalloc

import pytest

from repro.core.cluster import ClusterSpec
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig
from repro.server.hybrid import DiskSlot, HybridSlabManager
from repro.sim import BurstClock, Simulator
from repro.storage.device import BlockDevice
from repro.storage.params import PageCacheParams, SATA_SSD
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec


def make_hybrid(mem=2 * MB, ssd=16 * MB, io_policy="adaptive", **kw):
    sim = Simulator()
    dev = BlockDevice(sim, SATA_SSD)
    mgr = HybridSlabManager(sim, mem_limit=mem, device=dev, ssd_limit=ssd,
                            io_policy=io_policy,
                            pagecache_params=PageCacheParams(size_bytes=8 * MB),
                            **kw)
    return sim, dev, mgr


def make_inmem(mem=2 * MB):
    sim = Simulator()
    mgr = HybridSlabManager(sim, mem_limit=mem)
    return sim, mgr


def drive(sim, gen):
    return sim.run(until=sim.spawn(gen))


def fill(sim, mgr, n, value_len=30 * KB, prefix="k"):
    for i in range(n):
        drive(sim, mgr.store(f"{prefix}{i}".encode(), value_len))


class TestBasicOps:
    def test_store_and_lookup(self):
        sim, _, mgr = make_hybrid()
        item, info = drive(sim, mgr.store(b"key", 1000))
        assert mgr.lookup(b"key") is item
        assert item.in_ram
        assert not info.flushed

    def test_lookup_missing(self):
        sim, _, mgr = make_hybrid()
        assert mgr.lookup(b"nope") is None

    def test_overwrite_replaces(self):
        sim, _, mgr = make_hybrid()
        drive(sim, mgr.store(b"key", 1000))
        item2, info = drive(sim, mgr.store(b"key", 2000))
        assert info.replaced
        assert mgr.lookup(b"key") is item2
        assert mgr.lookup(b"key").value_length == 2000

    def test_delete(self):
        sim, _, mgr = make_hybrid()
        drive(sim, mgr.store(b"key", 1000))
        assert drive(sim, _gen_wrap(mgr.delete(b"key")))
        assert mgr.lookup(b"key") is None
        assert not mgr.delete(b"key")

    def test_expired_item_becomes_miss(self):
        sim, _, mgr = make_hybrid()
        drive(sim, mgr.store(b"key", 100, 0, 0.5))

        def later(sim):
            yield sim.timeout(1.0)
            return mgr.lookup(b"key")

        assert sim.run(until=sim.spawn(later(sim))) is None

    def test_oversized_value_rejected(self):
        sim, _, mgr = make_hybrid()
        with pytest.raises(ValueError):
            drive(sim, mgr.store(b"key", 2 * MB))


def _gen_wrap(value):
    """Wrap a plain value as a trivially-completed generator."""
    def gen():
        if False:
            yield
        return value
    return gen()


class TestSpillToSSD:
    def test_memory_pressure_flushes_whole_pages(self):
        sim, dev, mgr = make_hybrid(mem=2 * MB)
        fill(sim, mgr, 100)  # ~3 MB of 30 KB values into 2 MB of RAM
        assert mgr.stats.flushes > 0
        assert mgr.items_on_ssd > 0
        assert mgr.items_in_ram + mgr.items_on_ssd == 100
        assert mgr.stats.flushed_bytes == mgr.stats.flushes * mgr.allocator.page_size

    def test_no_data_loss_under_pressure(self):
        sim, _, mgr = make_hybrid(mem=2 * MB)
        fill(sim, mgr, 100)
        for i in range(100):
            assert mgr.lookup(f"k{i}".encode()) is not None, f"k{i} lost"

    def test_ssd_read_back(self):
        sim, dev, mgr = make_hybrid(mem=2 * MB)
        fill(sim, mgr, 100)
        victim = next(it for it in
                      (mgr.lookup(f"k{i}".encode()) for i in range(100))
                      if it is not None and it.on_ssd)
        nbytes = drive(sim, mgr.load_value(victim, BurstClock(sim)))
        assert nbytes == victim.total_size
        # The promotion finds a free chunk in the page the flush recycled.
        assert victim.in_ram
        assert mgr.stats.ssd_reads == 1

    def test_ram_hit_reads_nothing(self):
        sim, dev, mgr = make_hybrid()
        item, _ = drive(sim, mgr.store(b"key", 1000))
        assert drive(sim, mgr.load_value(item, BurstClock(sim))) == 0
        assert mgr.stats.ssd_reads == 0

    def test_cheap_promotion_moves_item_to_ram(self):
        sim, _, mgr = make_hybrid(mem=2 * MB)
        fill(sim, mgr, 100)
        on_ssd = next(it for it in
                      (mgr.lookup(f"k{i}".encode()) for i in range(100))
                      if it is not None and it.on_ssd)
        # Delete a RAM item to guarantee a free chunk for promotion.
        ram_item = next(it for it in
                        (mgr.lookup(f"k{i}".encode()) for i in range(100))
                        if it is not None and it.in_ram)
        mgr.delete(ram_item.key)
        drive(sim, mgr.load_value(on_ssd, BurstClock(sim)))
        assert on_ssd.in_ram
        assert mgr.stats.promotions >= 1

    def test_adaptive_uses_mmap_for_small_classes(self):
        sim, _, mgr = make_hybrid(io_policy="adaptive", adaptive_cutoff=64 * KB)
        small = mgr.allocator.class_for(4 * KB)
        large = mgr.allocator.class_for(256 * KB)
        assert mgr.scheme_name_for(small) == "mmap"
        assert mgr.scheme_name_for(large) == "cached"

    def test_direct_policy_always_direct(self):
        sim, _, mgr = make_hybrid(io_policy="direct")
        for cls in mgr.allocator.classes:
            assert mgr.scheme_name_for(cls) == "direct"

    def test_direct_flush_much_slower_than_adaptive(self):
        sim_d, dev_d, mgr_d = make_hybrid(mem=2 * MB, io_policy="direct")
        t0 = sim_d.now
        fill(sim_d, mgr_d, 100)
        t_direct = sim_d.now - t0

        sim_a, dev_a, mgr_a = make_hybrid(mem=2 * MB, io_policy="adaptive")
        t0 = sim_a.now
        fill(sim_a, mgr_a, 100)
        t_adaptive = sim_a.now - t0
        assert t_adaptive < t_direct / 2


class TestSSDCapacity:
    def test_full_ssd_drops_oldest_slot(self):
        # RAM 2 pages, SSD 2 slots: heavy fill must recycle disk slots.
        sim, _, mgr = make_hybrid(mem=2 * MB, ssd=2 * MB)
        fill(sim, mgr, 300)
        assert mgr.stats.disk_drops > 0
        assert mgr.stats.dropped_items > 0
        assert mgr.live_slot_count <= 2
        # Dropped keys are real misses now.
        total_live = sum(mgr.lookup(f"k{i}".encode()) is not None
                         for i in range(300))
        assert total_live < 300

    def test_slot_freed_when_last_item_leaves(self):
        sim, _, mgr = make_hybrid(mem=2 * MB, ssd=16 * MB)
        fill(sim, mgr, 100)
        slots_before = mgr.live_slot_count
        # Delete every SSD item: all slots must free.
        for i in range(100):
            it = mgr.lookup(f"k{i}".encode())
            if it is not None and it.on_ssd:
                mgr.delete(it.key)
        assert mgr.live_slot_count < slots_before

    def test_slot_counts_are_conserved_through_drops(self):
        """Overwrites, promotions, deletes and slot drops (SSD full)
        leave every slot's count equal to the table items it holds."""
        sim, _, mgr = make_hybrid(mem=2 * MB, ssd=4 * MB)

        def churn():
            for i in range(1500):
                key = f"k{i * 7 % 400}".encode()
                if i % 5 == 4:
                    mgr.delete(key)
                elif i % 3 == 2:
                    item = mgr.lookup(key)
                    if item is not None:
                        yield from mgr.load_value(item, BurstClock(sim))
                else:
                    yield from mgr.store(key, (1 + i % 3) * 10 * KB)

        drive(sim, churn())
        sim.run()
        assert mgr.stats.disk_drops > 0 and mgr.stats.promotions > 0
        check_slot_conservation(mgr)

    def test_ssd_limit_validation(self):
        sim = Simulator()
        dev = BlockDevice(sim, SATA_SSD)
        with pytest.raises(ValueError):
            HybridSlabManager(sim, mem_limit=2 * MB, device=dev,
                              ssd_limit=100)


def check_slot_conservation(mgr):
    """Each live slot counts exactly the table items that point at it,
    the free and live slot ids are disjoint with no id twice, and
    ``items_on_ssd`` is the number of table items on SSD."""
    on_ssd = [it for it in mgr.table.values() if it.on_ssd]
    for slot_id, slot in mgr._live_slots.items():
        assert slot.slot_id == slot_id
        held = [it for it in on_ssd if it.disk_slot is slot]
        assert slot.live == len(held) > 0
        assert sorted(id(it) for it in slot.items if it is not None) \
            == sorted(id(it) for it in held)
    assert all(it.disk_slot.slot_id in mgr._live_slots for it in on_ssd)
    assert len(set(mgr._free_slots)) == len(mgr._free_slots)
    assert not set(mgr._free_slots) & set(mgr._live_slots)
    assert len(mgr._free_slots) + len(mgr._live_slots) == mgr.total_slots
    assert mgr.items_on_ssd == len(on_ssd)


def test_a_warm_run_that_drops_slots_conserves_them():
    """A hybrid cluster run whose SSD log fills, so slots are dropped,
    and concurrent stores race page flushes. (Before a flushed page left
    its class's free-chunk list at the spill, a store during the flush
    could take a chunk of it, and this run failed with "recycling a
    non-empty page".)"""
    spec = WorkloadSpec(num_ops=300, num_keys=2000, value_length=4 * KB,
                        distribution="uniform",
                        value_sizes=((512, 0.5), (4 * KB, 0.4),
                                     (32 * KB, 0.1)))
    cfg = RunConfig(profile=H_RDMA_OPT_NONB_I, workload=spec,
                    cluster=ClusterSpec(
                        topology=TopologyConfig(initial_servers=2),
                        num_clients=4, server_mem=2 * MB, ssd_limit=4 * MB),
                    warmup_ops=300)
    cluster = cfg.build()
    assert cfg.run(cluster).ops == 1200
    for server in cluster.servers:
        mgr = server.manager
        assert mgr.stats.disk_drops > 0 and mgr.stats.promotions > 0
        check_slot_conservation(mgr)


def slot_bytes_per_item():
    """Traced bytes held, per item on SSD, by what ``DiskSlot`` and a
    page spill allocated: slot membership and each item's disk offset
    (the slot objects themselves are allocated elsewhere)."""
    gc.collect()
    tracemalloc.start()
    try:
        _sim, _, mgr = make_hybrid(mem=2 * MB, ssd=64 * MB)
        for count, value_length in ((4000, 900), (2000, 3000), (300, 30 * KB)):
            for i in range(count):
                mgr.preload(b"k%d-%d" % (value_length, i), value_length)
        assert mgr.stats.disk_drops == 0 and mgr.items_on_ssd > 5000
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    filename = inspect.getsourcefile(DiskSlot)
    lines = set()
    for fn in (DiskSlot.__init__, HybridSlabManager._spill_page):
        source, first = inspect.getsourcelines(fn)
        lines.update(range(first, first + len(source)))
    held = sum(t.size for t in snapshot.traces
               if t.traceback[0].filename == filename
               and t.traceback[0].lineno in lines)
    return held / mgr.items_on_ssd


@pytest.mark.skipif(tracemalloc.is_tracing(),
                    reason="needs tracemalloc to itself")
def test_memory_per_ssd_item_is_bounded():
    """What one more item on the SSD costs its slot: a pointer in the
    slot's chunk-indexed list (~8 B on CPython 3.11). Its offset is
    derived from the slot and its chunk index, not stored."""
    per_item = slot_bytes_per_item()
    assert per_item < 12, per_item


class TestInMemoryMode:
    def test_eviction_instead_of_flush(self):
        sim, mgr = make_inmem(mem=2 * MB)
        for i in range(100):
            drive(sim, mgr.store(f"k{i}".encode(), 30 * KB))
        assert mgr.stats.ram_evictions > 0
        assert mgr.stats.flushes == 0
        live = sum(mgr.lookup(f"k{i}".encode()) is not None for i in range(100))
        assert live < 100  # data was lost — that's the point

    def test_lru_order_of_eviction(self):
        sim, mgr = make_inmem(mem=2 * MB)
        for i in range(60):
            drive(sim, mgr.store(f"k{i}".encode(), 30 * KB))

        def touch_early(sim):
            yield sim.timeout(1e-6)
            item = mgr.lookup(b"k0")
            if item is not None:
                mgr.touch(item)

        drive(sim, touch_early(sim))
        for i in range(60, 75):
            drive(sim, mgr.store(f"k{i}".encode(), 30 * KB))
        # k0 was touched recently: more likely alive than untouched peers.
        assert mgr.lookup(b"k0") is not None

    def test_cross_class_page_steal(self):
        sim, mgr = make_inmem(mem=1 * MB)  # a single page
        drive(sim, mgr.store(b"small", 100))
        # A big value forces stealing the page from the small class.
        drive(sim, mgr.store(b"big", 500 * KB))
        assert mgr.lookup(b"big") is not None
        assert mgr.lookup(b"small") is None


class TestPreload:
    def test_preload_matches_store_state(self):
        sim, _, mgr = make_hybrid(mem=2 * MB)
        for i in range(100):
            mgr.preload(f"k{i}".encode(), 30 * KB)
        assert sim.now == 0.0  # zero simulated time
        assert mgr.items_in_ram + mgr.items_on_ssd == 100
        assert mgr.items_on_ssd > 0
        for i in range(100):
            assert mgr.lookup(f"k{i}".encode()) is not None

    def test_preload_inmem_evicts(self):
        sim, mgr = make_inmem(mem=2 * MB)
        for i in range(100):
            mgr.preload(f"k{i}".encode(), 30 * KB)
        live = sum(mgr.lookup(f"k{i}".encode()) is not None for i in range(100))
        assert live < 100


class TestVictimPolicies:
    def test_coldest_items_are_flushed_first(self):
        sim, _, mgr = make_hybrid(mem=2 * MB)
        fill(sim, mgr, 100)
        assert mgr.stats.flushes > 0
        assert mgr.lookup(b"k0").on_ssd
        assert mgr.lookup(b"k99").in_ram

    def test_invalid_policies_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            HybridSlabManager(sim, mem_limit=2 * MB, io_policy="bogus")

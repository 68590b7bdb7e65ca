"""Property-based tests: hybrid slab manager state consistency."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.hybrid import HybridSlabManager
from repro.sim import BurstClock, Simulator
from repro.storage.device import BlockDevice
from repro.storage.params import PageCacheParams, RAMDISK
from repro.units import KB, MB


def check_consistency(mgr: HybridSlabManager) -> None:
    """Every table entry lives in exactly one place; counts agree."""
    ram = 0
    ssd = 0
    for key, item in mgr.table.items():
        assert item.key == key
        if item.in_ram:
            ram += 1
            assert item.page is not None
            assert item.page.items.get(item.chunk_index) is item
        elif item.on_ssd:
            ssd += 1
            assert item.disk_slot is not None
            assert item.disk_slot.items[item.chunk_index] is item
            assert item.disk_slot.slot_id in mgr._live_slots
        else:  # pragma: no cover - would be a bug
            raise AssertionError(f"dead item in table: {item!r}")
    assert ram == mgr.items_in_ram
    # A superseded, deleted or promoted item leaves its slot at once.
    assert ssd == mgr.items_on_ssd
    # LRU lists contain exactly the RAM-resident items.
    for cls in mgr.allocator.classes:
        for it in cls.lru:
            assert it.in_ram and it.clsid == cls.clsid


@st.composite
def kv_programs(draw):
    n = draw(st.integers(min_value=1, max_value=100))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["set", "get", "delete"]))
        key = draw(st.integers(min_value=0, max_value=25))
        size = draw(st.sampled_from([1 * KB, 8 * KB, 30 * KB, 100 * KB]))
        ops.append((kind, key, size))
    return ops


def run_program(mgr, sim, ops):
    def driver():
        for kind, key, size in ops:
            kb = b"key%d" % key
            if kind == "set":
                yield from mgr.store(kb, size)
            elif kind == "get":
                item = mgr.lookup(kb)
                if item is not None:
                    yield from mgr.load_value(item, BurstClock(sim))
                    mgr.touch(item)
            else:
                mgr.delete(kb)
            check_consistency(mgr)

    sim.run(until=sim.spawn(driver()))


@settings(max_examples=40, deadline=None)
@given(kv_programs())
def test_hybrid_manager_consistency(ops):
    sim = Simulator()
    dev = BlockDevice(sim, RAMDISK)
    mgr = HybridSlabManager(
        sim, mem_limit=1 * MB, device=dev, ssd_limit=8 * MB,
        io_policy="adaptive",
        pagecache_params=PageCacheParams(size_bytes=4 * MB))
    run_program(mgr, sim, ops)
    # Page-cache counter never desynced (daemon would have healed it).
    assert mgr.pagecache.stats.counter_resyncs == 0


@settings(max_examples=40, deadline=None)
@given(kv_programs())
def test_inmemory_manager_consistency(ops):
    sim = Simulator()
    mgr = HybridSlabManager(sim, mem_limit=1 * MB)
    run_program(mgr, sim, ops)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60),
                          st.sampled_from([4 * KB, 30 * KB])),
                min_size=1, max_size=120))
def test_hybrid_never_loses_data_with_ample_ssd(pairs):
    """With SSD >> data, every stored key must remain retrievable."""
    sim = Simulator()
    dev = BlockDevice(sim, RAMDISK)
    mgr = HybridSlabManager(
        sim, mem_limit=1 * MB, device=dev, ssd_limit=64 * MB,
        io_policy="adaptive",
        pagecache_params=PageCacheParams(size_bytes=4 * MB))

    def driver():
        for key, size in pairs:
            yield from mgr.store(b"key%d" % key, size)

    sim.run(until=sim.spawn(driver()))
    for key, _ in pairs:
        assert mgr.lookup(b"key%d" % key) is not None


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=200))
def test_preload_equivalent_retention(keys):
    """preload() retains exactly what store() would retain (hybrid)."""
    def build(use_preload):
        sim = Simulator()
        dev = BlockDevice(sim, RAMDISK)
        mgr = HybridSlabManager(
            sim, mem_limit=1 * MB, device=dev, ssd_limit=32 * MB,
            io_policy="adaptive",
            pagecache_params=PageCacheParams(size_bytes=4 * MB))
        if use_preload:
            for k in keys:
                mgr.preload(b"k%d" % k, 30 * KB)
        else:
            def driver():
                for k in keys:
                    yield from mgr.store(b"k%d" % k, 30 * KB)
            sim.run(until=sim.spawn(driver()))
        return mgr

    a, b = build(True), build(False)
    assert set(a.table) == set(b.table)
    assert a.items_in_ram == b.items_in_ram

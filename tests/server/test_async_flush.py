"""Tests for asynchronous SSD flushes (the paper's Sec-VII future work)."""

from repro.server.hybrid import HybridSlabManager
from repro.sim import BurstClock, Simulator
from repro.storage.device import BlockDevice
from repro.storage.params import PageCacheParams, SATA_SSD
from repro.units import KB, MB


def make_mgr(async_flush, flush_buffers=4, io_policy="direct"):
    sim = Simulator()
    dev = BlockDevice(sim, SATA_SSD)
    mgr = HybridSlabManager(
        sim, mem_limit=2 * MB, device=dev, ssd_limit=32 * MB,
        io_policy=io_policy, async_flush=async_flush,
        flush_buffers=flush_buffers,
        pagecache_params=PageCacheParams(size_bytes=8 * MB))
    return sim, dev, mgr


def fill(sim, mgr, n, value_len=30 * KB):
    def driver():
        for i in range(n):
            yield from mgr.store(f"k{i}".encode(), value_len)

    sim.run(until=sim.spawn(driver()))


def test_async_flush_returns_before_device_write():
    sim_s, dev_s, mgr_s = make_mgr(async_flush=False)
    fill(sim_s, mgr_s, 100)
    t_sync = sim_s.now

    sim_a, dev_a, mgr_a = make_mgr(async_flush=True)
    fill(sim_a, mgr_a, 100)
    t_async = sim_a.now

    assert mgr_a.stats.flushes == mgr_s.stats.flushes
    assert t_async < t_sync  # callers no longer wait for the device


def test_async_flush_data_still_written_to_device():
    sim, dev, mgr = make_mgr(async_flush=True)
    fill(sim, mgr, 100)
    sim.run()  # drain background flush processes
    assert mgr.stats.async_flushes == mgr.stats.flushes
    assert dev.stats.bytes_written == mgr.stats.flushed_bytes
    # All slots eventually durable.
    assert all(s.durable for s in mgr._live_slots.values())


def test_no_data_loss_with_async_flush():
    sim, dev, mgr = make_mgr(async_flush=True)
    fill(sim, mgr, 100)
    for i in range(100):
        assert mgr.lookup(f"k{i}".encode()) is not None


def test_read_during_inflight_flush_served_from_buffer():
    sim, dev, mgr = make_mgr(async_flush=True, flush_buffers=8)

    def driver():
        for i in range(100):
            yield from mgr.store(f"k{i}".encode(), 30 * KB)
        # Immediately read an SSD-resident item: background writes are
        # still in flight for the most recent flushes.
        victim = next(it for i in range(100)
                      if (it := mgr.lookup(f"k{i}".encode())) is not None
                      and it.on_ssd and not it.disk_slot.durable)
        t0 = sim.now
        yield from mgr.load_value(victim, BurstClock(sim))
        return sim.now - t0

    elapsed = sim.run(until=sim.spawn(driver()))
    assert elapsed < SATA_SSD.read_latency / 10  # memcpy, not device
    assert mgr.stats.buffer_served_reads >= 1


def test_bounded_buffers_apply_backpressure():
    # One flush buffer: a burst of flushes must serialize on the device.
    sim1, _, mgr1 = make_mgr(async_flush=True, flush_buffers=1)
    fill(sim1, mgr1, 150)
    t_one = sim1.now

    sim8, _, mgr8 = make_mgr(async_flush=True, flush_buffers=8)
    fill(sim8, mgr8, 150)
    t_eight = sim8.now

    assert t_eight <= t_one


def test_server_config_plumbs_async_flush():
    from repro import build_cluster, profiles

    cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I, server_mem=8 * MB,
                            ssd_limit=32 * MB, async_flush=True)
    assert cluster.servers[0].manager.async_flush


def test_sync_mode_slots_are_durable_immediately():
    sim, dev, mgr = make_mgr(async_flush=False)
    fill(sim, mgr, 100)
    assert all(s.durable for s in mgr._live_slots.values())
    assert mgr.stats.async_flushes == 0

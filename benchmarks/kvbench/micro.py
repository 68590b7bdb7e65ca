"""Isolated micro-drivers: one layer's public calls on a bare
``Simulator``, host nanoseconds per unit of work, best of five.

The macro runs spread host time almost identically over the layers on
every workload, so these give the isolation they cannot. The two
``sim`` bodies are those of ``benchmarks/bench_engine.py``.

Each driver sets up fresh state and returns ``(body, units)``; only
``body()`` is timed.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

from repro.core.cluster import build_cluster
from repro.core.profiles import RDMA_MEM
from repro.net.fabric import Fabric
from repro.net.transport import connect_ipoib, connect_rdma
from repro.obs.registry import MetricsRegistry
from repro.server.hybrid import HybridSlabManager
from repro.sim import Simulator, Store
from repro.storage.device import BlockDevice
from repro.storage.pagecache import PageCache
from repro.storage.params import SATA_SSD, PageCacheParams
from repro.units import KB, MB

REPEATS = 5

Driver = Callable[[], Tuple[Callable[[], object], int]]


def _best_ns(driver: Driver) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        body, units = driver()
        t0 = time.perf_counter()
        body()
        best = min(best, (time.perf_counter() - t0) / units)
    return best * 1e9


def _timeouts():
    sim = Simulator()

    def ticker(n):
        for _ in range(n):
            yield sim.timeout(1e-6)

    for _ in range(10):
        sim.spawn(ticker(2_000))
    return sim.run, 20_000


def _store_handoffs():
    sim = Simulator()
    store = Store(sim, capacity=32)
    n = 8_000

    def producer():
        for i in range(n):
            yield store.put(i)

    def consumer():
        for _ in range(n):
            yield store.get()

    sim.spawn(producer())
    sim.spawn(consumer())
    return sim.run, n


def _messages(connect) -> Driver:
    def driver():
        sim = Simulator()
        fabric = Fabric(sim)
        a, b = connect(sim, fabric.node("a"), fabric.node("b"))
        n = 4_000

        def sender():
            for i in range(n):
                yield a.send(i, 4 * KB).on_wire

        def receiver():
            for _ in range(n):
                yield b.recv()

        sim.spawn(sender())
        sim.spawn(receiver())
        return sim.run, n

    return driver


def _device_ios():
    sim = Simulator()
    device = BlockDevice(sim, SATA_SSD)
    n = 4_000

    def app():
        for i in range(n):
            yield device.read(4 * KB) if i % 2 else device.write(32 * KB)

    sim.spawn(app())
    return sim.run, n


def _pagecache_accesses():
    sim = Simulator()
    cache = PageCache(sim, BlockDevice(sim, SATA_SSD), PageCacheParams(size_bytes=8 * MB))
    n = 4_000

    def app():
        # 16 MiB of offsets over an 8 MiB cache: hits, faults, evictions
        # and write-back all take part.
        for i in range(n):
            offset = (i * 37 % 4096) * 4 * KB
            if i % 2:
                yield from cache.read(offset, 4 * KB)
            else:
                yield from cache.write(offset, 4 * KB)

    done = sim.spawn(app())
    return (lambda: sim.run(until=done)), n  # the write-back daemon never ends


def _hybrid_manager(n: int = 4_000):
    sim = Simulator()
    manager = HybridSlabManager(sim, mem_limit=2 * MB, device=BlockDevice(sim, SATA_SSD),
                                ssd_limit=16 * MB)
    return sim, manager, [b"key:%010d" % i for i in range(n)]


def _hybrid_stores():
    sim, manager, keys = _hybrid_manager()

    def app():
        # 4 MB into 2 MB of RAM: about half the stores flush a slab.
        for key in keys:
            yield from manager.store(key, 1 * KB)

    done = sim.spawn(app())
    return (lambda: sim.run(until=done)), len(keys)


def _hybrid_lookups():
    _, manager, keys = _hybrid_manager()
    for key in keys:
        manager.preload(key, 1 * KB)

    def body():
        lookup, touch = manager.lookup, manager.touch
        for key in keys:
            touch(lookup(key))

    return body, len(keys)


def _client_gets():
    """A blocking GET that hits RAM on a 1 x 1 ``RDMA_MEM`` cluster:
    client issue to complete, with everything beneath it."""
    cluster = build_cluster(RDMA_MEM, server_mem=16 * MB)
    keys = [b"key:%010d" % i for i in range(256)]
    cluster.preload([(key, 512) for key in keys])
    client = cluster.clients[0]
    n = 1_500

    def app():
        for i in range(n):
            yield from client.get(keys[i % 256])

    done = cluster.sim.spawn(app())
    return (lambda: cluster.sim.run(until=done)), n


def _registry_incs():
    counter = MetricsRegistry().counter("kvbench_micro", layer="obs")
    n = 100_000

    def body():
        inc = counter.inc
        for _ in range(n):
            inc()

    return body, n


def run_all() -> Dict[str, float]:
    return {
        "sim.timeout_ns_per_event": _best_ns(_timeouts),
        "sim.store_ns_per_handoff": _best_ns(_store_handoffs),
        "net.rdma_ns_per_msg": _best_ns(_messages(connect_rdma)),
        "net.ipoib_ns_per_msg": _best_ns(_messages(connect_ipoib)),
        "storage.device_ns_per_io": _best_ns(_device_ios),
        "storage.pagecache_ns_per_access": _best_ns(_pagecache_accesses),
        "server.hybrid_store_ns_per_op": _best_ns(_hybrid_stores),
        "server.hybrid_lookup_ns_per_op": _best_ns(_hybrid_lookups),
        "client.rdma_get_ns_per_op": _best_ns(_client_gets),
        "obs.registry_inc_ns": _best_ns(_registry_incs),
    }

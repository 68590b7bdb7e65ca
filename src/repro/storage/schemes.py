"""Synchronous I/O schemes: direct I/O, cached I/O, and mmap.

These are the three eviction/load paths the paper compares in Figure 4
and that the adaptive slab allocator (Figure 5) switches between. All
three expose the same generator-based interface; callers ``yield from``
``write``/``read`` for synchronous-from-the-caller semantics (the paper's
schemes are all *synchronous* APIs — asynchrony, if any, comes from the
page cache's write-back underneath).
"""

from __future__ import annotations

from repro.sim import BurstClock, Simulator
from repro.storage.device import BlockDevice
from repro.storage.pagecache import PageCache


class IOScheme:
    """Interface: synchronous write/read of a byte range on one device.

    A read charges its CPU stages (a syscall, page faults, a memcpy) to
    the reader's ``clock``, empty at the call, and sleeps them where a
    device read is submitted and where the data is in memory.

    ``trace`` is an optional causal profile trace id: direct I/O tags
    the resulting device operation with it; the page-cache schemes
    ignore it (background write-back and shared page fetches are not
    attributable to a single request).
    """

    name: str = "abstract"

    def write(self, offset: int, nbytes: int, trace=None):
        """Generator: complete when the caller may proceed."""
        raise NotImplementedError

    def read(self, offset: int, nbytes: int, clock: BurstClock, trace=None):
        """A generator: complete when the data is in memory."""
        raise NotImplementedError

    def discard(self, offset: int, nbytes: int) -> None:
        """Forget any cached state for a freed range."""


class DirectIO(IOScheme):
    """O_DIRECT: every call pays full device latency and bandwidth.

    This is the scheme the existing hybrid design (H-RDMA-Def) uses for
    all slab evictions and loads, regardless of size.
    """

    name = "direct"

    def __init__(self, sim: Simulator, device: BlockDevice):
        self.sim = sim
        self.device = device

    def write(self, offset: int, nbytes: int, trace=None):
        yield self.device.write(nbytes, trace=trace)

    def read(self, offset: int, nbytes: int, clock: BurstClock, trace=None):
        # Nothing to charge: the device read is submitted at the call.
        yield self.device.read(nbytes, trace=trace)


class CachedIO(IOScheme):
    """Buffered read()/write() through the page cache.

    A write is a syscall plus a memcpy; durability is deferred to
    write-back (acceptable: Memcached is a cache, not a store — Sec V-B).
    A read charges its syscall before the page cache's memcpy.
    """

    name = "cached"

    def __init__(self, sim: Simulator, device: BlockDevice, cache: PageCache):
        self.sim = sim
        self.device = device
        self.cache = cache

    def write(self, offset: int, nbytes: int, trace=None):
        yield self.sim.timeout(self.cache.params.syscall_overhead)
        yield from self.cache.write(offset, nbytes, origin="write")

    def read(self, offset: int, nbytes: int, clock: BurstClock, trace=None):
        clock.charge(self.cache.params.syscall_overhead)
        return self.cache.read(offset, nbytes, clock)

    def discard(self, offset: int, nbytes: int) -> None:
        self.cache.discard(offset, nbytes)


class MmapIO(IOScheme):
    """Load/store into a mapped region.

    No syscall on the data path — only a minor-fault cost on first touch
    of each page — which is why it wins for small transfers. Mapped dirty
    pages write back in small clusters, which is why it loses to cached
    I/O for large transfers (Figure 4).
    """

    name = "mmap"

    def __init__(self, sim: Simulator, device: BlockDevice, cache: PageCache):
        self.sim = sim
        self.device = device
        self.cache = cache

    def _fault_cost(self, offset: int, nbytes: int) -> float:
        return self.cache.absent_pages(offset, nbytes) * self.cache.params.fault_overhead

    def write(self, offset: int, nbytes: int, trace=None):
        cost = self._fault_cost(offset, nbytes)
        if cost:
            yield self.sim.timeout(cost)
        yield from self.cache.write(offset, nbytes, origin="mmap")

    def read(self, offset: int, nbytes: int, clock: BurstClock, trace=None):
        cost = self._fault_cost(offset, nbytes)
        if cost:
            clock.charge(cost)
        return self.cache.read(offset, nbytes, clock)

    def discard(self, offset: int, nbytes: int) -> None:
        self.cache.discard(offset, nbytes)


def make_scheme(kind: str, sim: Simulator, device: BlockDevice,
                cache: PageCache | None = None) -> IOScheme:
    """Factory keyed by scheme name ("direct" | "cached" | "mmap")."""
    if kind == "direct":
        return DirectIO(sim, device)
    if cache is None:
        raise ValueError(f"scheme {kind!r} needs a page cache")
    if kind == "cached":
        return CachedIO(sim, device, cache)
    if kind == "mmap":
        return MmapIO(sim, device, cache)
    raise ValueError(f"unknown I/O scheme {kind!r}")

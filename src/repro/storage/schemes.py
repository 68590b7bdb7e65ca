"""Synchronous I/O schemes: direct I/O, cached I/O, and mmap.

These are the three eviction/load paths the paper compares in Figure 4
and that the adaptive slab allocator (Figure 5) switches between. All
three expose the same generator-based interface; callers ``yield from``
``write``/``read`` for synchronous-from-the-caller semantics (the paper's
schemes are all *synchronous* APIs — asynchrony, if any, comes from the
page cache's write-back underneath).
"""

from __future__ import annotations

from repro.sim import Simulator
from repro.sim.events import Timeout
from repro.storage.device import BlockDevice
from repro.storage.pagecache import PageCache


class IOScheme:
    """Interface: synchronous write/read of a byte range on one device.

    ``trace`` is an optional causal profile trace id: direct I/O tags
    the resulting device operation with it; the page-cache schemes
    ignore it (background write-back and shared page fetches are not
    attributable to a single request).
    """

    name: str = "abstract"
    #: Whether a read's last sleep is CPU (the page cache's memcpy)
    #: rather than a device wake, so the caller's next CPU stage may
    #: ride its own next timer.
    read_ends_on_cpu: bool = False

    def write(self, offset: int, nbytes: int, trace=None):
        """Generator: complete when the caller may proceed."""
        raise NotImplementedError

    def read(self, offset: int, nbytes: int, trace=None):
        """Generator: complete when the data is in memory."""
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

    def read(self, offset: int, nbytes: int, trace=None):
        yield self.device.read(nbytes, trace=trace)


class CachedIO(IOScheme):
    """Buffered read()/write() through the page cache.

    A write is a syscall plus a memcpy; durability is deferred to
    write-back (acceptable: Memcached is a cache, not a store — Sec V-B).
    A read of a fully resident range is CPU alone: its syscall and its
    memcpy are one timer.
    """

    name = "cached"
    read_ends_on_cpu = True

    def __init__(self, sim: Simulator, device: BlockDevice, cache: PageCache):
        self.sim = sim
        self.device = device
        self.cache = cache

    def write(self, offset: int, nbytes: int, trace=None):
        yield self.sim.timeout(self.cache.params.syscall_overhead)
        yield from self.cache.write(offset, nbytes, origin="write")

    def read(self, offset: int, nbytes: int, trace=None):
        sim, cache = self.sim, self.cache
        params = cache.params
        if cache.read_resident(offset, nbytes):
            # Due where the memcpy's own timer would end, and posted
            # where it would have started (same float sums).
            syscalled = sim._now + params.syscall_overhead
            yield Timeout.at(sim, syscalled + nbytes / params.memcpy_bandwidth,
                             posted=syscalled)
            return
        # A missing page's device read is submitted at the syscall's end.
        yield sim.timeout(params.syscall_overhead)
        yield from cache.read(offset, nbytes)

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
    read_ends_on_cpu = True

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

    def read(self, offset: int, nbytes: int, trace=None):
        cost = self._fault_cost(offset, nbytes)
        if cost:
            yield self.sim.timeout(cost)
        yield from self.cache.read(offset, nbytes)

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

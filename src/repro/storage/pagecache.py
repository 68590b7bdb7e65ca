"""OS page-cache model with dirty write-back and throttling.

Pages are tracked at ``params.page_size`` granularity in flat per-page
arrays: a state byte and the links of an LRU list. Buffered writes dirty
pages and return at memcpy speed; a background write-back process
flushes dirty pages to the device in clusters. Writers throttle when the
dirty fraction exceeds ``params.dirty_ratio`` — this is what keeps
cached I/O from looking infinitely fast under sustained write pressure.

Pages dirtied through ``mmap`` are written back in smaller clusters
(``mmap_writeback_batch``) than pages dirtied through ``write``
(``writeback_batch``), modeling the kernel's poorer clustering of
mapped-page write-back; this is one half of why cached I/O beats mmap
for large transfers (Figure 4).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim import BurstClock, Simulator
from repro.storage.device import BlockDevice
from repro.storage.params import PageCacheParams

#: A resident page's state byte: its origin's code, plus 1 while it is
#: dirty (0: not resident). Write-back cleans a page to its origin's code.
_READ, _WRITE, _MMAP = 2, 4, 6
_ORIGIN = {"write": _WRITE, "mmap": _MMAP}


@dataclass
class PageCacheStats:
    hit_bytes: int = 0
    miss_bytes: int = 0
    writeback_ops: int = 0
    writeback_bytes: int = 0
    throttle_events: int = 0
    #: Times the write-back daemon found its dirty counter out of sync
    #: with page state and resynchronized. Must stay 0; nonzero means an
    #: accounting bug (the daemon self-heals rather than spinning).
    counter_resyncs: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hit_bytes + self.miss_bytes
        return self.hit_bytes / total if total else 0.0


class PageCache:
    """Page cache fronting one :class:`BlockDevice`.

    Index ``p + 1`` of the per-page arrays (grown to the highest page
    touched) is page ``p``: its state byte and its links in a circular
    LRU list, oldest first, whose sentinel is index 0. Moves in the list
    are inlined where they happen: no Python call per page."""

    def __init__(self, sim: Simulator, device: BlockDevice,
                 params: PageCacheParams):
        self.sim = sim
        self.device = device
        self.params = params
        self.capacity_pages = max(1, params.size_bytes // params.page_size)
        self._state = bytearray(1)
        self._prev = array("i", [0])
        self._next = array("i", [0])
        self._resident = 0
        self._dirty = 0
        self.stats = PageCacheStats()
        self._wakeup = sim.event()  # signals the write-back daemon
        self._progress = sim.event()  # signals throttled writers
        sim.spawn(self._writeback_daemon(), name=f"writeback-{device.name}")

    # -- helpers -----------------------------------------------------------

    def _page_range(self, offset: int, nbytes: int) -> range:
        """The array indices of the pages a byte range covers."""
        ps = self.params.page_size
        first = offset // ps
        last = (offset + max(nbytes, 1) - 1) // ps
        return range(first + 1, last + 2)

    def _grow(self, stop: int) -> None:
        """Extend the per-page arrays, in place, to ``stop`` entries."""
        n = stop - len(self._state)
        self._state.extend(bytes(n))
        self._prev.frombytes(bytes(n * self._prev.itemsize))
        self._next.frombytes(bytes(n * self._next.itemsize))

    @property
    def dirty_pages(self) -> int:
        return self._dirty

    @property
    def resident_pages(self) -> int:
        return self._resident

    def counted_dirty_pages(self) -> int:
        """Dirty pages counted from page state (``dirty_pages`` is a running count)."""
        return sum(state & 1 for state in self._state)

    def absent_pages(self, offset: int, nbytes: int) -> int:
        """How many pages of the byte range are not resident."""
        pages = self._page_range(offset, nbytes)
        known = self._state[pages.start:pages.stop]
        return known.count(0) + len(pages) - len(known)

    def _make_room(self, needed: int):
        """Evict clean pages (oldest first) until ``needed`` slots exist.

        Blocks on write-back progress when everything is dirty.
        """
        state, prev, nxt = self._state, self._prev, self._next
        while self._resident + needed > self.capacity_pages:
            victim = nxt[0]
            while victim and state[victim] & 1:
                victim = nxt[victim]
            if victim:
                before, after = prev[victim], nxt[victim]
                nxt[before], prev[after] = after, before
                state[victim] = 0
                self._resident -= 1
                continue
            # All resident pages dirty: wait for the daemon to clean some.
            self._signal_wakeup()
            yield self._progress

    def _signal_wakeup(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    # -- buffered I/O --------------------------------------------------------

    def write(self, offset: int, nbytes: int, origin: str = "write"):
        """Buffered write: memcpy into the cache, dirty the pages.

        Generator — drive with ``yield from``. Throttles when the dirty
        ratio is exceeded. ``origin`` is ``"write"`` or ``"mmap"``.
        """
        limit = int(self.params.dirty_ratio * self.capacity_pages)
        while self._dirty > limit:
            self.stats.throttle_events += 1
            self._signal_wakeup()
            yield self._progress
        yield self.sim.timeout(nbytes / self.params.memcpy_bandwidth)
        pages = self._page_range(offset, nbytes)
        dirty = _ORIGIN[origin] + 1
        while True:
            # Recompute each round: eviction (ours or a concurrent
            # process's) may have removed pages we counted as resident.
            fresh = self.absent_pages(offset, nbytes)
            if self._resident + fresh <= self.capacity_pages:
                break
            yield from self._make_room(fresh)
        if pages.stop > len(self._state):
            self._grow(pages.stop)
        state, prev, nxt = self._state, self._prev, self._next
        for p in pages:
            was = state[p]
            if was:
                before, after = prev[p], nxt[p]
                nxt[before], prev[after] = after, before
            else:
                self._resident += 1
            if not was & 1:
                self._dirty += 1
            last = prev[0]
            nxt[last], prev[p], nxt[p], prev[0] = p, last, 0, p
            state[p] = dirty
        self._signal_wakeup()

    def read(self, offset: int, nbytes: int, clock: Optional[BurstClock] = None):
        """Buffered read: misses fetch page clusters from the device.

        Generator — returns the number of bytes that missed the cache.
        With every page resident they are touched and the hit counted at
        the call, and the memcpy is slept on the reader's ``clock`` (or
        one of the read's own) with what the clock holds (a syscall, page
        faults); otherwise that is slept first and the pages looked at
        again."""
        if clock is None:
            clock = BurstClock(self.sim)
        pages = self._page_range(offset, nbytes)
        if pages.stop > len(self._state) or 0 in self._state[pages.start:pages.stop]:
            if clock.pending:
                yield clock.sleep()
            if pages.stop > len(self._state):
                self._grow(pages.stop)
        state, prev, nxt = self._state, self._prev, self._next
        missing = []
        for p in pages:
            if not state[p]:
                missing.append(p)
                continue
            before, after = prev[p], nxt[p]
            nxt[before], prev[after] = after, before
            last = prev[0]
            nxt[last], prev[p], nxt[p], prev[0] = p, last, 0, p
        missed_bytes = len(missing) * self.params.page_size
        self.stats.hit_bytes += max(0, nbytes - missed_bytes)
        self.stats.miss_bytes += min(nbytes, missed_bytes)
        if missing:
            yield from self._make_room(len(missing))
            for run_bytes in _cluster_runs(missing, self.params.page_size):
                yield self.device.read(run_bytes)
            for p in missing:
                # A concurrent writer may have dirtied this page during
                # the device read (its state must stand), and eviction
                # may have shrunk our room — over capacity, simply do
                # not retain the freshly-read page.
                if not state[p] and self._resident < self.capacity_pages:
                    last = prev[0]
                    nxt[last], prev[p], nxt[p], prev[0] = p, last, 0, p
                    state[p] = _READ
                    self._resident += 1
        yield clock.sleep(nbytes / self.params.memcpy_bandwidth)
        return missed_bytes

    def contains(self, offset: int, nbytes: int) -> bool:
        """True when every page of the range is resident."""
        return not self.absent_pages(offset, nbytes)

    def discard(self, offset: int, nbytes: int) -> None:
        """Drop pages (clean or dirty) — e.g. when a disk slab is freed."""
        pages = self._page_range(offset, nbytes)
        state, prev, nxt = self._state, self._prev, self._next
        for p in range(pages.start, min(pages.stop, len(state))):
            was = state[p]
            if was:
                before, after = prev[p], nxt[p]
                nxt[before], prev[after] = after, before
                state[p] = 0
                self._resident -= 1
                self._dirty -= was & 1

    def sync(self):
        """Generator: block until no dirty pages remain."""
        while self._dirty > 0:
            self._signal_wakeup()
            yield self._progress

    # -- write-back daemon ---------------------------------------------------

    def _writeback_daemon(self):
        ps = self.params.page_size
        state, prev, nxt = self._state, self._prev, self._next
        while True:
            if self._dirty == 0:
                self._wakeup = self.sim.event()
                yield self._wakeup
                continue
            # Collect one batch: the oldest dirty pages in LRU order, with
            # their state bytes. When every dirty page fits in it, they
            # are found from the most recent end, where writes put them.
            size = max(1, -(-self.params.writeback_batch // ps))
            links = prev if self._dirty <= size else nxt
            want = min(size, self._dirty)
            batch: List[Tuple[int, int]] = []
            p = links[0]
            while p and len(batch) < want:
                if state[p] & 1:
                    batch.append((p, state[p]))
                p = links[p]
            if links is prev:
                batch.reverse()
            if not batch:
                # Self-heal a counter desync instead of spinning forever
                # in a zero-time loop (this must never happen; see stats).
                self.stats.counter_resyncs += 1
                self._dirty = self.counted_dirty_pages()
                continue
            # Issue device writes per same-origin contiguous cluster,
            # capped at the origin's clustering limit.
            for nbytes in self._clusters(batch):
                yield self.device.write(nbytes)
                self.stats.writeback_ops += 1
                self.stats.writeback_bytes += nbytes
            for p, dirty in batch:
                if state[p] & 1:
                    state[p] = dirty - 1
                    self._dirty -= 1
            del batch  # a parked daemon keeps no batch alive
            if not self._progress.triggered:
                self._progress.succeed()
            self._progress = self.sim.event()

    def _clusters(self, batch: List[Tuple[int, int]]) -> List[int]:
        """Split a dirty batch of ``(page, state)`` into device-write
        sizes; a page's dirty state names its origin."""
        ps = self.params.page_size
        out: List[int] = []
        run_bytes = 0
        prev_page = prev_dirty = None
        for page, dirty in batch:
            cap = (self.params.mmap_writeback_batch if dirty == _MMAP + 1
                   else self.params.writeback_batch)
            if run_bytes and (page != prev_page + 1 or dirty != prev_dirty
                              or run_bytes + ps > cap):
                out.append(run_bytes)
                run_bytes = 0
            run_bytes += ps
            prev_page, prev_dirty = page, dirty
        if run_bytes:
            out.append(run_bytes)
        return out


def _cluster_runs(pages: List[int], page_size: int) -> List[int]:
    """Byte sizes of maximal contiguous runs in a sorted page list."""
    runs: List[int] = []
    count = 0
    prev = None
    for p in pages:
        if prev is not None and p == prev + 1:
            count += 1
        else:
            if count:
                runs.append(count * page_size)
            count = 1
        prev = p
    if count:
        runs.append(count * page_size)
    return runs

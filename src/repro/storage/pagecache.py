"""OS page-cache model with dirty write-back and throttling.

Pages are tracked at ``params.page_size`` granularity in an LRU-ordered
dict. Buffered writes dirty pages and return at memcpy speed; a
background write-back process flushes dirty pages to the device in
clusters. Writers throttle when the dirty fraction exceeds
``params.dirty_ratio`` — this is what keeps cached I/O from looking
infinitely fast under sustained write pressure.

Pages dirtied through ``mmap`` are written back in smaller clusters
(``mmap_writeback_batch``) than pages dirtied through ``write``
(``writeback_batch``), modeling the kernel's poorer clustering of
mapped-page write-back; this is one half of why cached I/O beats mmap
for large transfers (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim import Simulator
from repro.storage.device import BlockDevice
from repro.storage.params import PageCacheParams

#: Every ``(dirty, origin)`` value a resident page has ever taken. A
#: page's value is one of these few shared tuples, never a fresh one, so
#: a resident page costs its dict slot and nothing more.
_ENTRIES: Dict[Tuple[bool, str], Tuple[bool, str]] = {}


def _entry(dirty: bool, origin: str) -> Tuple[bool, str]:
    """The shared ``(dirty, origin)`` tuple of a page state."""
    key = (dirty, origin)
    return _ENTRIES.setdefault(key, key)


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
    """Page cache fronting one :class:`BlockDevice`."""

    def __init__(self, sim: Simulator, device: BlockDevice,
                 params: PageCacheParams):
        self.sim = sim
        self.device = device
        self.params = params
        self.capacity_pages = max(1, params.size_bytes // params.page_size)
        #: page index -> (dirty, origin), a shared tuple (``_entry``, or
        #: the constant ``(False, "read")``); insertion order ~ LRU order.
        self._pages: Dict[int, Tuple[bool, str]] = {}
        self._dirty = 0
        self.stats = PageCacheStats()
        self._wakeup = sim.event()  # signals the write-back daemon
        self._progress = sim.event()  # signals throttled writers
        sim.spawn(self._writeback_daemon(), name=f"writeback-{device.name}")

    # -- helpers -----------------------------------------------------------

    def _page_range(self, offset: int, nbytes: int) -> range:
        ps = self.params.page_size
        first = offset // ps
        last = (offset + max(nbytes, 1) - 1) // ps
        return range(first, last + 1)

    @property
    def dirty_pages(self) -> int:
        return self._dirty

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def _touch(self, page: int) -> None:
        entry = self._pages.pop(page)
        self._pages[page] = entry

    def _signal(self, attr: str) -> None:
        ev = getattr(self, attr)
        if not ev.triggered:
            ev.succeed()
        setattr(self, attr, self.sim.event())

    def _make_room(self, needed: int):
        """Evict clean pages (oldest first) until ``needed`` slots exist.

        Blocks on write-back progress when everything is dirty.
        """
        while len(self._pages) + needed > self.capacity_pages:
            victim = None
            for page, (dirty, _origin) in self._pages.items():
                if not dirty:
                    victim = page
                    break
            if victim is not None:
                del self._pages[victim]
                continue
            # All resident pages dirty: wait for the daemon to clean some.
            self._signal_wakeup()
            yield self._progress_event()

    def _signal_wakeup(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _progress_event(self):
        return self._progress

    # -- buffered I/O --------------------------------------------------------

    def write(self, offset: int, nbytes: int, origin: str = "write"):
        """Buffered write: memcpy into the cache, dirty the pages.

        Generator — drive with ``yield from``. Throttles when the dirty
        ratio is exceeded.
        """
        limit = int(self.params.dirty_ratio * self.capacity_pages)
        while self._dirty > limit:
            self.stats.throttle_events += 1
            self._signal_wakeup()
            yield self._progress
        yield self.sim.timeout(nbytes / self.params.memcpy_bandwidth)
        pages = self._page_range(offset, nbytes)
        dirty = _entry(True, origin)
        while True:
            # Recompute each round: eviction (ours or a concurrent
            # process's) may have removed pages we counted as resident.
            fresh = sum(1 for p in pages if p not in self._pages)
            if len(self._pages) + fresh <= self.capacity_pages:
                break
            yield from self._make_room(fresh)
        for p in pages:
            was = self._pages.pop(p, None)
            if was is None or not was[0]:
                self._dirty += 1
            self._pages[p] = dirty
        self._signal_wakeup()

    def read_resident(self, offset: int, nbytes: int) -> bool:
        """A buffered read's bookkeeping when every page of the range is
        resident: touch the pages and count the hit, and return True;
        the caller sleeps the memcpy. With any page missing nothing is
        done and the answer is False."""
        pages = self._page_range(offset, nbytes)
        cached = self._pages
        for p in pages:
            if p not in cached:
                return False
        for p in pages:
            self._touch(p)
        self.stats.hit_bytes += nbytes
        return True

    def read(self, offset: int, nbytes: int):
        """Buffered read: misses fetch page clusters from the device.

        Generator — returns the number of bytes that missed the cache.
        """
        pages = list(self._page_range(offset, nbytes))
        missing = [p for p in pages if p not in self._pages]
        for p in pages:
            if p in self._pages:
                self._touch(p)
        missed_bytes = len(missing) * self.params.page_size
        hit_bytes = max(0, nbytes - missed_bytes)
        self.stats.hit_bytes += hit_bytes
        self.stats.miss_bytes += min(nbytes, missed_bytes)
        if missing:
            yield from self._make_room(len(missing))
            for run_bytes in _cluster_runs(missing, self.params.page_size):
                yield self.device.read(run_bytes)
            for p in missing:
                # A concurrent writer may have dirtied this page during
                # the device read (its entry must stand), and eviction
                # may have shrunk our room — over capacity, simply do
                # not retain the freshly-read page.
                if (p not in self._pages
                        and len(self._pages) < self.capacity_pages):
                    self._pages[p] = (False, "read")
        yield self.sim.timeout(nbytes / self.params.memcpy_bandwidth)
        return missed_bytes

    def contains(self, offset: int, nbytes: int) -> bool:
        """True when every page of the range is resident."""
        return all(p in self._pages for p in self._page_range(offset, nbytes))

    def discard(self, offset: int, nbytes: int) -> None:
        """Drop pages (clean or dirty) — e.g. when a disk slab is freed."""
        for p in self._page_range(offset, nbytes):
            entry = self._pages.pop(p, None)
            if entry is not None and entry[0]:
                self._dirty -= 1

    def sync(self):
        """Generator: block until no dirty pages remain."""
        while self._dirty > 0:
            self._signal_wakeup()
            yield self._progress

    # -- write-back daemon ---------------------------------------------------

    def _writeback_daemon(self):
        ps = self.params.page_size
        while True:
            if self._dirty == 0:
                self._wakeup = self.sim.event()
                yield self._wakeup
                continue
            # Collect one batch of dirty pages in LRU order.
            batch: List[Tuple[int, str]] = []
            batch_bytes = 0
            for page, (dirty, origin) in self._pages.items():
                if not dirty:
                    continue
                batch.append((page, origin))
                batch_bytes += ps
                if batch_bytes >= self.params.writeback_batch:
                    break
            if not batch:
                # Self-heal a counter desync instead of spinning forever
                # in a zero-time loop (this must never happen; see stats).
                self.stats.counter_resyncs += 1
                self._dirty = sum(1 for d, _ in self._pages.values() if d)
                continue
            # Issue device writes per same-origin contiguous cluster,
            # capped at the origin's clustering limit.
            for nbytes in self._clusters(batch):
                yield self.device.write(nbytes)
                self.stats.writeback_ops += 1
                self.stats.writeback_bytes += nbytes
            for page, origin in batch:
                if page in self._pages and self._pages[page][0]:
                    self._pages[page] = _entry(False, origin)
                    self._dirty -= 1
            self._signal("_progress")

    def _clusters(self, batch: List[Tuple[int, str]]) -> List[int]:
        """Split a dirty batch into device-write sizes."""
        ps = self.params.page_size
        out: List[int] = []
        run_bytes = 0
        prev_page = None
        prev_origin = None
        for page, origin in batch:
            cap = (self.params.mmap_writeback_batch if origin == "mmap"
                   else self.params.writeback_batch)
            contiguous = prev_page is not None and page == prev_page + 1
            same = origin == prev_origin
            if run_bytes and (not contiguous or not same or run_bytes + ps > cap):
                out.append(run_bytes)
                run_bytes = 0
            run_bytes += ps
            prev_page, prev_origin = page, origin
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

"""The page cache against a reference model: a plain dict LRU.

``DictPageCache`` keeps each resident page in an insertion-ordered dict
(page -> ``(dirty, origin)``) whose order is the LRU order, oldest
first, and otherwise follows the page cache's rules: a write or a touch
makes a page the most recent, eviction takes the oldest clean page,
write-back takes the oldest dirty pages and cleans them in place, and
writers throttle past the dirty ratio.

Seeded random programs of buffered writes, mmap writes, reads, reads
after a syscall charged to the reader's clock (slept, and the pages
looked at again, only when one is missing), and discards run on a
small cache and on the model, each in its own simulator, as two
concurrent client processes. After every call both must hold the same resident
pages (so they evicted the same victims), the same ``resident_pages``
and ``dirty_pages``, and must have sent the device the same writes, of
the same sizes, in the same order (and the same reads).
"""

import itertools
import random

from repro.sim import BurstClock, Simulator
from repro.storage.device import BlockDevice
from repro.storage.pagecache import PageCache
from repro.storage.params import PageCacheParams, RAMDISK
from repro.units import KB, US

PS = 4 * KB
#: 16 resident pages over a 48-page file; write-back takes 4 pages per
#: batch and clusters mmap pages 2 at a time.
PARAMS = PageCacheParams(size_bytes=16 * PS, dirty_ratio=0.5,
                         writeback_batch=4 * PS, mmap_writeback_batch=2 * PS)
SPACE = 48
SEEDS = range(40)


class DictPageCache:
    """The reference model (see the module docstring)."""

    def __init__(self, sim, device, params):
        self.sim, self.device, self.params = sim, device, params
        self.capacity = max(1, params.size_bytes // params.page_size)
        self.pages = {}
        self.dirty = 0
        self.throttles = 0
        self.evictions = 0
        self._wakeup = sim.event()
        self._progress = sim.event()
        sim.spawn(self._daemon())

    def _range(self, offset, nbytes):
        ps = self.params.page_size
        return range(offset // ps, (offset + max(nbytes, 1) - 1) // ps + 1)

    @property
    def resident_pages(self):
        return len(self.pages)

    @property
    def dirty_pages(self):
        return self.dirty

    def contains(self, offset, nbytes):
        return all(p in self.pages for p in self._range(offset, nbytes))

    def _wake(self):
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _make_room(self, needed):
        while len(self.pages) + needed > self.capacity:
            clean = [p for p, (dirty, _) in self.pages.items() if not dirty]
            if clean:
                del self.pages[clean[0]]
                self.evictions += 1
                continue
            self._wake()
            yield self._progress

    def write(self, offset, nbytes, origin="write"):
        limit = int(self.params.dirty_ratio * self.capacity)
        while self.dirty > limit:
            self.throttles += 1
            self._wake()
            yield self._progress
        yield self.sim.timeout(nbytes / self.params.memcpy_bandwidth)
        pages = self._range(offset, nbytes)
        while True:
            fresh = sum(p not in self.pages for p in pages)
            if len(self.pages) + fresh <= self.capacity:
                break
            yield from self._make_room(fresh)
        for p in pages:
            was = self.pages.pop(p, None)
            if was is None or not was[0]:
                self.dirty += 1
            self.pages[p] = (True, origin)
        self._wake()

    def _runs(self, pages):
        """Byte sizes of the contiguous runs of a sorted page list: a
        run's pages minus their positions in the list are one number."""
        return [len(list(run)) * self.params.page_size
                for _, run in itertools.groupby(enumerate(pages),
                                                lambda ip: ip[1] - ip[0])]

    def read(self, offset, nbytes, clock):
        pages = self._range(offset, nbytes)
        if any(p not in self.pages for p in pages):
            yield clock.sleep()
        missing = [p for p in pages if p not in self.pages]
        for p in pages:
            if p in self.pages:
                self.pages[p] = self.pages.pop(p)
        if missing:
            yield from self._make_room(len(missing))
            for run_bytes in self._runs(missing):
                yield self.device.read(run_bytes)
            for p in missing:
                if p not in self.pages and len(self.pages) < self.capacity:
                    self.pages[p] = (False, "read")
        clock.charge(nbytes / self.params.memcpy_bandwidth)

    def discard(self, offset, nbytes):
        for p in self._range(offset, nbytes):
            was = self.pages.pop(p, None)
            if was is not None and was[0]:
                self.dirty -= 1

    def _daemon(self):
        ps = self.params.page_size
        while True:
            if not self.dirty:
                self._wakeup = self.sim.event()
                yield self._wakeup
                continue
            batch = []
            for p, (dirty, origin) in self.pages.items():
                if dirty:
                    batch.append((p, origin))
                    if len(batch) * ps >= self.params.writeback_batch:
                        break
            sizes, run, prev = [], 0, (None, None)
            for p, origin in batch:
                cap = (self.params.mmap_writeback_batch if origin == "mmap"
                       else self.params.writeback_batch)
                if run and ((p - 1, origin) != prev or run + ps > cap):
                    sizes.append(run)
                    run = 0
                run += ps
                prev = (p, origin)
            for nbytes in sizes + [run]:
                yield self.device.write(nbytes)
            for p, origin in batch:
                if self.pages.get(p, (False,))[0]:
                    self.pages[p] = (False, origin)
                    self.dirty -= 1
            if not self._progress.triggered:
                self._progress.succeed()
            self._progress = self.sim.event()


def program(rng):
    """One client's calls: ``(kind, offset, nbytes, gap)``."""
    calls = []
    for _ in range(rng.randint(20, 60)):
        kind = rng.choice(["write", "mmap", "read", "syscall_read",
                           "discard"])
        first = rng.randrange(SPACE)
        pages = rng.randint(1, min(6, SPACE - first))
        calls.append((kind, first * PS, pages * PS,
                      rng.choice([0.0, 1 * US, 20 * US])))
    return calls


def run(cache_type, programs):
    """Every client program on a fresh cache of ``cache_type``; one
    observation per finished call, and the cache."""
    sim = Simulator()
    dev = BlockDevice(sim, RAMDISK)
    io = []
    write, read = dev.write, dev.read
    dev.write = lambda nbytes: io.append(("write", nbytes)) or write(nbytes)
    dev.read = lambda nbytes: io.append(("read", nbytes)) or read(nbytes)
    cache = cache_type(sim, dev, PARAMS)
    seen = []

    def client(name, calls):
        clock = BurstClock(sim)
        for i, (kind, offset, nbytes, gap) in enumerate(calls):
            if kind in ("write", "mmap"):
                yield from cache.write(offset, nbytes, origin=kind)
            elif kind.endswith("read"):
                if kind == "syscall_read":
                    clock.charge(PARAMS.syscall_overhead)
                yield from cache.read(offset, nbytes, clock)
                yield clock.sleep()
            else:
                cache.discard(offset, nbytes)
            resident = [p for p in range(SPACE) if cache.contains(p * PS, PS)]
            seen.append(((name, i, kind, offset // PS, nbytes // PS), resident,
                         cache.resident_pages, cache.dirty_pages, list(io)))
            yield sim.timeout(gap)

    sim.run(until=sim.all_of([sim.spawn(client(name, calls))
                              for name, calls in enumerate(programs)]))
    return seen, cache


def test_the_page_cache_matches_a_dict_lru():
    throttles = evictions = writebacks = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        programs = [program(rng), program(rng)]
        want, model = run(DictPageCache, programs)
        got, cache = run(PageCache, programs)
        for observed, expected in zip(got, want):
            assert observed == expected, (
                f"seed {seed}, after call {expected[0]}:\n"
                f"  page cache {observed[1:4]}, device {observed[4][-4:]}\n"
                f"  dict model {expected[1:4]}, device {expected[4][-4:]}")
        assert len(got) == len(want)
        assert cache.stats.throttle_events == model.throttles
        throttles += model.throttles
        evictions += model.evictions
        writebacks += cache.stats.writeback_ops
    # The programs reach every rule the model pins.
    assert throttles and evictions and writebacks

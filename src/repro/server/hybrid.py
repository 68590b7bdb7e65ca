"""Hybrid RAM+SSD slab manager with adaptive I/O (paper Section V-B).

Responsibilities:

* the full SET/GET state machine over the slab allocator and hash table;
* on memory pressure, pick a *victim slab page* and synchronously flush
  the **entire page** to an SSD slot (this whole-slab eviction is the
  existing H-RDMA-Def behaviour the paper analyzes);
* choose the I/O scheme per slab class: the default design always uses
  direct I/O; the optimized design adaptively uses mmap for small chunk
  classes and cached I/O for large ones (Figure 5);
* read items back from SSD on GET, optionally promoting them to RAM;
* bound SSD usage: when all slots are used, the oldest slot is dropped
  and its items become cache misses (Memcached is a cache).

In non-hybrid mode (``device=None``) the same manager implements the
in-memory designs: memory pressure evicts LRU items instead of flushing,
so evicted keys miss and the client pays the backend penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.api import NULL_OBS, Observability
from repro.server.item import DEAD, Item, RAM, SSD
from repro.server.slab import SlabAllocator, SlabClass, SlabPage
from repro.sim import BurstClock, Resource, Simulator
from repro.storage.device import BlockDevice
from repro.storage.pagecache import PageCache
from repro.storage.params import PageCacheParams
from repro.storage.schemes import IOScheme, make_scheme
from repro.units import KB, MB

#: Fixed value size of counter items (the decimal digits of a uint64).
#: memcached stores counters as ASCII; sizing every counter for the
#: largest representation means incr never has to reallocate the chunk
#: when the value grows a digit.
COUNTER_VALUE_BYTES = 20


class DiskSlot:
    """One slab-page-sized region on the SSD."""

    __slots__ = ("slot_id", "offset", "chunk_size", "items", "live",
                 "scheme_name", "seq", "durable")

    def __init__(self, slot_id: int, offset: int, chunk_size: int,
                 scheme_name: str, seq: int):
        self.slot_id = slot_id
        self.offset = offset
        #: Chunk size of the page spilled here; an item of this slot
        #: starts at ``offset + item.chunk_index * chunk_size``.
        self.chunk_size = chunk_size
        #: chunk index -> Item, None where the chunk holds no live item.
        self.items: List[Optional[Item]] = []
        #: Number of non-None entries of ``items``.
        self.live = 0
        self.scheme_name = scheme_name
        self.seq = seq
        #: False while an asynchronous flush of this slot is in flight;
        #: reads meanwhile are served from the flush buffer.
        self.durable = False


@dataclass
class ManagerStats:
    """State-change accounting (timing is measured by the server)."""

    stores: int = 0
    lookups: int = 0
    hits: int = 0
    flushes: int = 0
    flushed_bytes: int = 0
    ssd_reads: int = 0
    ssd_read_bytes: int = 0
    promotions: int = 0
    ram_evictions: int = 0
    disk_drops: int = 0
    dropped_items: int = 0
    async_flushes: int = 0
    buffer_served_reads: int = 0
    automoves: int = 0
    counter_ops: int = 0
    #: Items reclaimed by the background expiry sweeper.
    expired_active: int = 0
    #: Items reclaimed lazily on access (lookup/_live found them dead).
    expired_passive: int = 0
    flush_alls: int = 0


@dataclass
class StoreInfo:
    """What happened during one SET (for stage attribution)."""

    flushed: bool = False
    flush_bytes: int = 0
    evicted: int = 0
    replaced: bool = False
    #: Outcome of the storage command: STORED, NOT_STORED (failed
    #: add/replace precondition), EXISTS (cas mismatch), NOT_FOUND
    #: (cas on absent key).
    status: str = "STORED"


class HybridSlabManager:
    """Slab + LRU + hash table + SSD spill, as one state machine.

    Methods that may perform I/O (``store``, ``load_value``) are
    generators; the server drives them and measures stage time around
    them. ``preload`` applies the same state transitions in zero
    simulated time for fast experiment setup.
    """

    def __init__(self, sim: Simulator, mem_limit: int,
                 device: Optional[BlockDevice] = None,
                 ssd_limit: int = 0,
                 page_size: int = 1 * MB,
                 io_policy: str = "direct",
                 adaptive_cutoff: int = 32 * KB,
                 pagecache_params: Optional[PageCacheParams] = None,
                 min_chunk: int = 96,
                 growth_factor: float = 1.25,
                 direct_read_chunks: int = 4,
                 async_flush: bool = False,
                 flush_buffers: int = 4,
                 flush_memcpy_bandwidth: float = 8e9,
                 automove: bool = False,
                 automove_interval: float = 0.05,
                 active_expiry: bool = True,
                 expiry_interval: float = 0.005,
                 expiry_budget: int = 128,
                 obs: Optional[Observability] = None,
                 owner: str = "server0"):
        if io_policy not in ("direct", "adaptive"):
            raise ValueError(f"unknown io_policy {io_policy!r}")
        self.sim = sim
        self.obs = obs or NULL_OBS
        self.owner = owner
        self.allocator = SlabAllocator(mem_limit, page_size=page_size,
                                       min_chunk=min_chunk,
                                       growth_factor=growth_factor)
        self.table: Dict[bytes, Item] = {}
        #: HLC-mode delete markers: key -> the largest delete stamp seen.
        #: Consulted by the last-writer-wins merge so a write that lost
        #: to a delete cannot resurrect the key. Modeled as journaled
        #: alongside the consensus log — survives :meth:`wipe`.
        self.tombstones: Dict[bytes, tuple] = {}
        self.device = device
        self.hybrid = device is not None
        self.io_policy = io_policy
        self.adaptive_cutoff = adaptive_cutoff
        #: The existing design's O_DIRECT read path operates on coarse
        #: slab-block-aligned windows (this many chunks per read): its
        #: on-SSD layout is slab-, not chunk-oriented. The optimized
        #: design reads exactly one chunk through mmap/cached I/O — one
        #: of the things Section V-B2 redesigns.
        self.direct_read_chunks = direct_read_chunks
        self.stats = ManagerStats()
        # live metrics (no-ops when observability is disabled)
        reg = self.obs.registry
        labels = dict(server=owner)
        #: Whether the metric calls below do anything: with the registry
        #: off each ``.inc()`` is a NULL-counter call, skipped instead.
        self._metrics_on = reg.enabled
        self._m_flushes = reg.counter("slab_flushes", **labels)
        self._m_flushed_bytes = reg.counter("slab_flushed_bytes", **labels)
        self._m_ssd_reads = reg.counter("ssd_reads", **labels)
        self._m_promotions = reg.counter("promotions", **labels)
        self._m_evictions = reg.counter("ram_evictions", **labels)
        self._m_dropped = reg.counter("dropped_items", **labels)
        # One free-chunk gauge per slab class (memcached's per-class
        # occupancy); classes are fixed at allocator construction.
        for cls in self.allocator.classes:
            reg.gauge("slab_free_chunks",
                      fn=lambda c=cls: sum(p.free_count for p in c.pages),
                      server=owner, chunk_size=str(cls.chunk_size))
        self._cas_counter = 0
        #: Serializes victim selection + flush (memcached's cache lock):
        #: two workers must never flush the same page concurrently.
        self._flush_lock = Resource(sim, capacity=1)
        #: Asynchronous SSD I/O (the paper's Sec-VII future work): evicted
        #: slabs are staged in bounded flush buffers and written back by a
        #: background process instead of synchronously.
        self.async_flush = async_flush
        self._flush_buffers = Resource(sim, capacity=max(1, flush_buffers))
        self._flush_memcpy_bandwidth = flush_memcpy_bandwidth
        #: Slab automover (memcached's rebalancer): when one class keeps
        #: needing space while another sits on under-used pages, move a
        #: page proactively. Event-triggered so an idle sim drains.
        self.automove = automove
        self.automove_interval = automove_interval
        self._pressure: Dict[int, int] = {}
        self._automove_wakeup = sim.event()
        if automove:
            sim.spawn(self._automover(), name="slab-automover")
        #: Active TTL reclaim (memcached's LRU crawler): a background
        #: process scans the table on a per-tick item budget and frees
        #: expired chunks without waiting for the next lookup. Spawned
        #: lazily on the first expirable insertion so TTL-free runs pay
        #: zero events; parks on an event when nothing expirable remains
        #: so an idle simulation still drains.
        self.active_expiry = active_expiry
        self.expiry_interval = expiry_interval
        self.expiry_budget = max(1, expiry_budget)
        #: ``flush_all`` epoch: items created strictly before this sim
        #: time are invalid once ``now`` reaches it (None = no flush
        #: pending). Reclaim is lazy plus the sweeper.
        self._flush_at: Optional[float] = None
        self._sweeper_started = False
        self._expiry_wakeup = None  # event while the sweeper is parked
        self._sleep_interrupt = None  # event while the sweeper sleeps
        self._sweep_until: Optional[float] = None
        self._sweep_cursor: List[bytes] = []
        self._pass_started = 0.0
        self._pass_next: Optional[float] = None
        if self.hybrid:
            if ssd_limit < page_size:
                raise ValueError("ssd_limit must hold at least one slab page")
            self.pagecache = PageCache(sim, device,
                                       pagecache_params or PageCacheParams())
            self.schemes: Dict[str, IOScheme] = {
                "direct": make_scheme("direct", sim, device),
                "cached": make_scheme("cached", sim, device, self.pagecache),
                "mmap": make_scheme("mmap", sim, device, self.pagecache),
            }
            self.total_slots = ssd_limit // page_size
            self._free_slots: List[int] = list(range(self.total_slots - 1, -1, -1))
            self._live_slots: Dict[int, DiskSlot] = {}
            self._slot_seq = 0
        else:
            self.pagecache = None
            self.schemes = {}
            self.total_slots = 0
            self._free_slots = []
            self._live_slots = {}
            self._slot_seq = 0

    # -- scheme selection (Figure 5) ---------------------------------------

    def scheme_name_for(self, cls: SlabClass) -> str:
        """I/O scheme used when flushing/reading slabs of this class."""
        if self.io_policy == "direct":
            return "direct"
        return "mmap" if cls.chunk_size <= self.adaptive_cutoff else "cached"

    # -- lookups ---------------------------------------------------------------

    def _expired(self, item: Item) -> bool:
        """Logically dead: past its deadline (memcached expires at
        ``now >= expiration``, inclusive) or invalidated by a pending
        ``flush_all`` epoch."""
        now = self.sim._now
        if item.expiration and now >= item.expiration:
            return True
        flush_at = self._flush_at
        return (flush_at is not None and now >= flush_at
                and item.created < flush_at)

    def lookup(self, key: bytes) -> Optional[Item]:
        self.stats.lookups += 1
        item = self.table.get(key)
        if item is None:
            return None
        if self._expired(item):
            self._remove_item(item)
            self.stats.expired_passive += 1
            return None
        self.stats.hits += 1
        return item

    def touch(self, item: Item, at: Optional[float] = None) -> None:
        """Cache Update stage: promote to MRU, stamped ``at`` (default
        now) — the instant the stage ends, which a worker that runs it
        inside a longer CPU burst knows before it sleeps the burst.

        Tolerates stale references: an item replaced or flushed by a
        concurrent worker since the lookup is silently skipped.
        """
        item.last_access = self.sim.now if at is None else at
        if item.location == RAM and item.page is not None:
            self.allocator.classes[item.clsid].lru.touch(item)

    # -- SET path ------------------------------------------------------------

    def store(self, key: bytes, value_length: int, flags: int = 0,
              expiration: float = 0.0, mode: str = "set",
              cas_token: int = 0, hlc=None):
        """Generator: allocate a chunk (flushing/evicting as needed) and
        insert the item. Returns ``(Item | None, StoreInfo)``.

        ``mode`` implements memcached's conditional storage commands:
        "set" stores unconditionally, "add" only when the key is absent,
        "replace" only when present, "cas" only when ``cas_token``
        matches the live item's token. Failed preconditions return
        ``(None, info)`` with ``info.status`` set, before any memory is
        allocated.

        With an ``hlc`` stamp, the write merges last-writer-wins: if the
        current item (or a tombstone) carries a stamp at least as large,
        the write is a no-op that still answers STORED — the caller's
        write *happened*, it just lost the conflict race. Equal stamps
        keep the installed copy (idempotent at-least-once retries).
        """
        info = StoreInfo()
        existing = self._live(key)
        if mode == "add" and existing is not None:
            info.status = "NOT_STORED"
            return None, info
        if mode == "replace" and existing is None:
            info.status = "NOT_STORED"
            return None, info
        if mode == "cas":
            if existing is None:
                info.status = "NOT_FOUND"
                return None, info
            if existing.cas != cas_token:
                info.status = "EXISTS"
                return None, info
        if hlc is not None:
            tomb = self.tombstones.get(key)
            if tomb is not None and tomb >= hlc:
                return None, info  # lost to a newer delete
            if existing is not None and existing.hlc is not None \
                    and existing.hlc >= hlc:
                return existing, info  # lost to a newer write
        item = Item(key, value_length, flags, expiration)
        item.hlc = hlc
        cls = self.allocator.class_for(item.total_size)
        if cls is None:
            raise ValueError(
                f"object of {item.total_size} bytes exceeds the slab page size")
        page = self.allocator.alloc_chunk(cls, item)
        while page is None:
            yield from self._make_space(cls, info)
            page = self.allocator.alloc_chunk(cls, item)
        self._cas_counter += 1
        item.cas = self._cas_counter
        info.replaced = self._link(item, cls)
        self.stats.stores += 1
        if hlc is not None:
            self.tombstones.pop(key, None)  # the write outranked it
        return item, info

    def _link(self, item: Item, cls: SlabClass) -> bool:
        """Make a freshly allocated item the live entry under its key
        (the tail ``store`` and ``preload`` share). Returns True when it
        replaced an older entry."""
        old = self.table.get(item.key)
        if old is not None:
            self._remove_item(old, keep_table=True)
        self.table[item.key] = item
        item.created = item.last_access = self.sim._now
        cls.lru.insert_head(item)
        if item.expiration:
            self._arm_expiry(item.expiration)
        return old is not None

    def counter_op(self, key: bytes, delta: int, direction: str,
                   initial: Optional[int] = None, expiration: float = 0.0):
        """Generator: memcached ``incr``/``decr`` (meta arithmetic).

        Returns ``(status, value, Item | None)``. An absent key answers
        NOT_FOUND unless ``initial`` is given (auto-create, installing
        ``expiration``); an existing non-counter item answers
        NOT_NUMERIC. decr saturates at zero. A successful operation
        draws a fresh CAS token, like any store.
        """
        self.stats.counter_ops += 1
        existing = self._live(key)
        if existing is None:
            if initial is None:
                return "NOT_FOUND", 0, None
            item, _info = yield from self.store(key, COUNTER_VALUE_BYTES,
                                                expiration=expiration)
            item.numeric = max(0, int(initial))
            return "STORED", item.numeric, item
        if existing.numeric is None:
            return "NOT_NUMERIC", 0, existing
        if direction == "incr":
            existing.numeric += delta
        else:
            existing.numeric = max(0, existing.numeric - delta)
        self._cas_counter += 1
        existing.cas = self._cas_counter
        return "STORED", existing.numeric, existing

    def set_expiration(self, item: Item, expiration: float) -> bool:
        """Refresh an item's deadline (touch/gat). A deadline already in
        the past removes the item immediately, per memcached; returns
        False in that case, True when the item stays live."""
        if expiration and self.sim.now >= expiration:
            self._remove_item(item)
            self.stats.expired_passive += 1
            return False
        item.expiration = expiration
        if expiration:
            self._arm_expiry(expiration)
        return True

    def flush_all(self, delay: float = 0.0) -> float:
        """memcached ``flush_all``: stamp an invalidation epoch
        ``delay`` seconds in the future (0 = now). Items created before
        the epoch are invalid once it passes; chunks are reclaimed
        lazily on access and by the expiry sweeper. Returns the epoch."""
        now = self.sim.now
        if self._flush_at is not None and now >= self._flush_at:
            # The previous epoch already passed: reclaim its victims
            # before overwriting it, else installing a *future* epoch
            # would resurrect items that are logically gone.
            self._reclaim_flushed()
        at = now + max(0.0, delay)
        self._flush_at = at
        self.stats.flush_alls += 1
        self._arm_expiry(at)
        return at

    def _reclaim_flushed(self) -> None:
        """Zero-time reclaim of everything the pending epoch (and TTL)
        already invalidated; clears the spent epoch."""
        for item in list(self.table.values()):
            if item.location != DEAD and self._expired(item):
                self._remove_item(item)
                self.stats.expired_passive += 1
        self._flush_at = None

    # -- active expiry (memcached's LRU crawler) ---------------------------

    def _arm_expiry(self, deadline: float) -> None:
        """Note a new expirable deadline: lazily start the sweeper, wake
        it if parked, or cut its sleep short when it would otherwise
        wake after ``deadline``."""
        if not self.active_expiry:
            return
        if not self._sweeper_started:
            self._sweeper_started = True
            self.sim.spawn(self._expiry_sweeper(),
                           name=f"{self.owner}-expiry")
            return
        if self._expiry_wakeup is not None:
            if not self._expiry_wakeup.triggered:
                self._expiry_wakeup.succeed()
        elif (self._sleep_interrupt is not None
              and self._sweep_until is not None
              and deadline < self._sweep_until
              and not self._sleep_interrupt.triggered):
            self._sleep_interrupt.succeed()

    def _expiry_sweeper(self):
        """Background reclaim: scan the table ``expiry_budget`` items per
        tick, freeing expired chunks. Sleeps to the earliest future
        deadline (never busy-ticking) and parks on an event when nothing
        expirable remains, so the sweeper adds no events to TTL-free
        runs and never keeps an otherwise-idle simulation alive."""
        while True:
            next_deadline = self._sweep_tick()
            if next_deadline is None:
                self._expiry_wakeup = self.sim.event()
                yield self._expiry_wakeup
                self._expiry_wakeup = None
                continue
            delay = max(self.expiry_interval, next_deadline - self.sim.now)
            self._sweep_until = self.sim.now + delay
            self._sleep_interrupt = self.sim.event()
            yield self.sim.any_of([self.sim.timeout(delay),
                                   self._sleep_interrupt])
            self._sleep_interrupt = None
            self._sweep_until = None

    def _sweep_tick(self) -> Optional[float]:
        """Scan up to ``expiry_budget`` entries of the current pass.

        Returns the sim time at which sweeping could next do useful work,
        or None when no expirable item and no pending flush epoch remain
        (the sweeper parks). A pass snapshots the key list once and walks
        it across ticks so one tick's cost stays bounded.
        """
        if not self._sweep_cursor:
            self._sweep_cursor = list(self.table.keys())
            self._pass_started = self.sim.now
            self._pass_next = None
        budget = self.expiry_budget
        while self._sweep_cursor and budget:
            key = self._sweep_cursor.pop()
            item = self.table.get(key)
            if item is None or item.location == DEAD:
                continue
            budget -= 1
            if self._expired(item):
                self._remove_item(item)
                self.stats.expired_active += 1
            elif item.expiration:
                if self._pass_next is None or item.expiration < self._pass_next:
                    self._pass_next = item.expiration
        if self._sweep_cursor:
            # Budget exhausted mid-pass: continue next tick.
            return self.sim.now + self.expiry_interval
        nxt = self._pass_next
        if self._flush_at is not None:
            if self._pass_started >= self._flush_at:
                # A full pass began after the epoch, so every item it
                # invalidated has been reclaimed: the epoch is spent and
                # lazy checks no longer need to consult it.
                self._flush_at = None
            else:
                due = max(self._flush_at, self.sim.now)
                nxt = due if nxt is None else min(nxt, due)
        return nxt

    def _live(self, key: bytes) -> Optional[Item]:
        """Current unexpired item (expired entries count as absent)."""
        item = self.table.get(key)
        if item is None:
            return None
        if self._expired(item):
            self._remove_item(item)
            self.stats.expired_passive += 1
            return None
        return item

    def delete(self, key: bytes, hlc=None) -> bool:
        # Through _live, not the raw table: deleting a logically-expired
        # key must answer NOT_FOUND (the dead entry is still reclaimed).
        item = self._live(key)
        if hlc is not None:
            if item is not None and item.hlc is not None \
                    and item.hlc > hlc:
                # A newer write already outranks this delete: leave the
                # item, but still ack — the delete happened and lost.
                return True
            tomb = self.tombstones.get(key)
            if tomb is None or hlc > tomb:
                self.tombstones[key] = hlc
        if item is None:
            return False
        self._remove_item(item)
        return True

    def wipe(self) -> int:
        """Drop every item in zero simulated time (cold restart after a
        crash: stock memcached loses its DRAM contents, and the SSD slab
        layout is not recovered either). Chunks, pages, and SSD slots are
        released through the regular removal paths so the allocator and
        slot accounting stay consistent. Returns the items dropped."""
        items = list(self.table.values())
        for item in items:
            self._remove_item(item)
        self.table.clear()
        self._flush_at = None  # a pending flush epoch dies with the data
        # Tombstones deliberately survive: they are modeled as journaled
        # with the consensus log, so an acked delete cannot resurrect
        # through a crash + anti-entropy resync.
        return len(items)

    def _remove_item(self, item: Item, keep_table: bool = False) -> None:
        if not keep_table:
            self.table.pop(item.key, None)
        if item.in_ram:
            self.allocator.classes[item.clsid].lru.remove(item)
            self.allocator.free_chunk(item)
        elif item.on_ssd:
            self._remove_from_slot(item, item.chunk_index)
        # Mark dead: concurrent readers holding this item must not touch
        # the LRU or promote it.
        item.location = DEAD

    def _remove_from_slot(self, item: Item, idx: int) -> None:
        slot: DiskSlot = item.disk_slot
        item.disk_slot = None
        members = slot.items
        # A dropped slot has emptied its list: its items are gone already
        # and must not free the slot a second time.
        if idx < len(members) and members[idx] is item:
            members[idx] = None
            slot.live -= 1
            if not slot.live:
                self._free_slot(slot)

    def _free_slot(self, slot: DiskSlot) -> None:
        self._live_slots.pop(slot.slot_id, None)
        self._free_slots.append(slot.slot_id)
        scheme = self.schemes[slot.scheme_name]
        scheme.discard(slot.offset, self.allocator.page_size)

    # -- memory pressure ---------------------------------------------------

    def _make_space(self, cls: SlabClass, info: StoreInfo):
        """Generator: free at least one chunk of ``cls``."""
        self._note_pressure(cls)
        if not self.hybrid:
            # Pure-RAM eviction is instantaneous: no yield, so the
            # enclosing `yield from` costs no scheduling round.
            if not self._steal_empty_page(cls):
                self._evict_for(cls, info)
            return
        req = self._flush_lock.request()
        yield req
        try:
            if self._class_has_room(cls):
                return  # a concurrent flush already freed space
            if self._steal_empty_page(cls):
                return  # an emptied page was re-purposed, no I/O needed
            victim = self._victim_page(cls)
            yield from self._flush_page(victim, cls, info)
        finally:
            self._flush_lock.release(req)

    def _note_pressure(self, cls: SlabClass) -> None:
        if not self.automove:
            return
        self._pressure[cls.clsid] = self._pressure.get(cls.clsid, 0) + 1
        if not self._automove_wakeup.triggered:
            self._automove_wakeup.succeed()

    def _automover(self):
        """Background rebalancer: donate an under-used page to the class
        under sustained allocation pressure (memcached's slab automove,
        adapted: in hybrid mode the donated page's items are flushed to
        SSD, so nothing is lost)."""
        while True:
            yield self._automove_wakeup
            yield self.sim.timeout(self.automove_interval)  # batch window
            self._automove_wakeup = self.sim.event()
            pressure, self._pressure = self._pressure, {}
            if not pressure:
                continue
            poor_id = max(pressure, key=pressure.get)
            poor = self.allocator.classes[poor_id]
            donor_page = self._least_used_page(exclude=poor_id)
            if donor_page is None:
                continue
            req = self._flush_lock.request()
            yield req
            try:
                # Re-validate under the lock (state may have moved on).
                if donor_page.clsid == poor.clsid or donor_page not in \
                        self.allocator.classes[donor_page.clsid].pages:
                    continue
                if donor_page.used == 0:
                    self.allocator.recycle_page(donor_page, poor)
                elif self.hybrid:
                    info = StoreInfo()
                    yield from self._flush_page(donor_page, poor, info)
                else:
                    info = StoreInfo()
                    donor_cls = self.allocator.classes[donor_page.clsid]
                    for idx, item in list(donor_page.items.items()):
                        donor_cls.lru.remove(item)
                        self.table.pop(item.key, None)
                        donor_page.free(idx)
                        item.page = None
                        self.stats.ram_evictions += 1
                        if self._metrics_on:
                            self._m_evictions.inc()
                    self.allocator.recycle_page(donor_page, poor)
                self.stats.automoves += 1
            finally:
                self._flush_lock.release(req)

    def _least_used_page(self, exclude: int,
                         max_fraction: float = 0.5) -> Optional[SlabPage]:
        """The page with the lowest occupancy below ``max_fraction``
        outside the excluded class (None if every page is busy)."""
        best = None
        best_frac = max_fraction
        for cls in self.allocator.classes:
            if cls.clsid == exclude:
                continue
            for page in cls.pages:
                frac = page.used / page.capacity
                if frac <= best_frac:
                    best = page
                    best_frac = frac
        return best

    def _steal_empty_page(self, to_cls: SlabClass) -> bool:
        """Re-purpose a fully-empty page from another class (no I/O)."""
        for other in self.allocator.classes:
            if other.clsid == to_cls.clsid:
                continue
            for page in other.pages:
                if page.used == 0:
                    self.allocator.recycle_page(page, to_cls)
                    return True
        return False

    def _class_has_room(self, cls: SlabClass) -> bool:
        if self.allocator.unassigned_pages > 0:
            return True
        return any(p.free_count for p in cls.partial)

    def _victim_page(self, cls: SlabClass) -> SlabPage:
        """Pick the slab page to flush (see DESIGN.md §5): the page
        holding the least recently used item of the class whose LRU tail
        is globally coldest (preferring `cls` when it has pages of its
        own)."""
        tail = cls.lru.coldest()
        if tail is not None:
            return tail.page
        best: Optional[Item] = None
        for other in self.allocator.classes:
            t = other.lru.coldest()
            if t is not None and (best is None or t.last_access < best.last_access):
                best = t
        if best is None:
            raise RuntimeError("memory full of un-evictable items")
        return best.page

    def _flush_page(self, page: SlabPage, to_cls: SlabClass, info: StoreInfo):
        """Generator: write a whole victim page to an SSD slot.

        Synchronous mode (the paper's designs): the caller waits for the
        scheme write. Asynchronous mode (the paper's *future work*,
        Sec VII): the slab is copied into a bounded flush buffer, the
        page is recycled immediately, and a background process performs
        the device write; reads of not-yet-durable items are served from
        the buffer at memcpy speed.
        """
        slot = self._spill_page(page)
        span = self.obs.tracer.begin("slab_flush", tid=f"{self.owner}-slabs",
                                     pid="server", cat="flush", async_=True,
                                     scheme=slot.scheme_name)
        scheme = self.schemes[slot.scheme_name]
        if self.async_flush:
            buf = self._flush_buffers.request()
            yield buf  # backpressure: bounded in-flight flush buffers
            yield self.sim.timeout(
                self.allocator.page_size / self._flush_memcpy_bandwidth)
            self.sim.spawn(self._background_flush(scheme, slot, buf),
                           name="async-flush")
        else:
            # The paper's design flushes the entire 1 MiB slab synchronously.
            yield from scheme.write(slot.offset, self.allocator.page_size)
            slot.durable = True
        self.stats.flushes += 1
        self.stats.flushed_bytes += self.allocator.page_size
        if self._metrics_on:
            self._m_flushes.inc()
            self._m_flushed_bytes.inc(self.allocator.page_size)
        span.end(bytes=self.allocator.page_size)
        info.flushed = True
        info.flush_bytes += self.allocator.page_size
        self.allocator.recycle_page(page, to_cls)

    def _spill_page(self, page: SlabPage) -> DiskSlot:
        """The state transition of a page flush, no I/O: every item of
        ``page`` moves to a fresh SSD slot and its chunk is freed.
        ``preload`` stops here (its slots are durable at once);
        ``_flush_page`` then pays for the write."""
        from_cls = self.allocator.classes[page.clsid]
        if page in from_cls.partial:
            # Its chunks are freed below, but the page is being recycled:
            # nothing may allocate into it while its flush is in flight.
            from_cls.partial.remove(page)
        slot = self._acquire_slot(self.scheme_name_for(from_cls),
                                  page.chunk_size)
        slot.live = len(page.items)
        members = slot.items = [None] * (max(page.items, default=-1) + 1)
        for idx, item in list(page.items.items()):
            from_cls.lru.remove(item)
            item.location = SSD
            item.disk_slot = slot
            item.page = None
            item.chunk_index = idx
            members[idx] = item
            page.free(idx)
        return slot

    def _background_flush(self, scheme: IOScheme, slot: DiskSlot, buf):
        try:
            yield from scheme.write(slot.offset, self.allocator.page_size)
            slot.durable = True
            self.stats.async_flushes += 1
        finally:
            self._flush_buffers.release(buf)

    def _acquire_slot(self, scheme_name: str, chunk_size: int) -> DiskSlot:
        """Get a free disk slot, dropping the oldest if full."""
        if not self._free_slots:
            oldest = min(self._live_slots.values(), key=lambda s: s.seq)
            for item in oldest.items:
                if item is None:
                    continue
                self.table.pop(item.key, None)
                self.stats.dropped_items += 1
                if self._metrics_on:
                    self._m_dropped.inc()
            oldest.items = []
            oldest.live = 0
            self._free_slot(oldest)
            self.stats.disk_drops += 1
        slot_id = self._free_slots.pop()
        slot = DiskSlot(slot_id, slot_id * self.allocator.page_size,
                        chunk_size, scheme_name, self._slot_seq)
        self._slot_seq += 1
        self._live_slots[slot_id] = slot
        return slot

    def _evict_for(self, cls: SlabClass, info: StoreInfo) -> None:
        """In-memory designs: LRU-evict items to free a chunk of ``cls``."""
        tail = cls.lru.coldest()
        if tail is not None:
            self._remove_item(tail)
            self.stats.ram_evictions += 1
            if self._metrics_on:
                self._m_evictions.inc()
            info.evicted += 1
            return
        # Class has no items: steal the coldest page of another class.
        best: Optional[Item] = None
        for other in self.allocator.classes:
            t = other.lru.coldest()
            if t is not None and (best is None or t.last_access < best.last_access):
                best = t
        if best is None:
            raise RuntimeError("memory full of un-evictable items")
        page = best.page
        donor = self.allocator.classes[page.clsid]
        for idx, item in list(page.items.items()):
            donor.lru.remove(item)
            self.table.pop(item.key, None)
            page.free(idx)
            item.page = None
            self.stats.ram_evictions += 1
            if self._metrics_on:
                self._m_evictions.inc()
            info.evicted += 1
        self.allocator.recycle_page(page, cls)

    # -- GET path ---------------------------------------------------------

    def load_value(self, item: Item, clock: BurstClock, trace=None):
        """Generator (Cache Check & Load stage): make the value readable.

        ``trace`` tags the SSD read with the requesting operation's
        causal profile trace id (observability only). The read's CPU
        stages go on the worker's ``clock``, empty at the call.

        Returns the number of bytes read from SSD (0 on a RAM hit). The
        accessed item is then promoted back to RAM, following the Cache
        Update semantics of Section III-A ("promotes the most recently
        added or accessed data"), even when making room flushes another
        victim page to the SSD: the churn this creates is part of the
        hybrid design's cost when the working set exceeds memory.
        """
        if item.location != SSD:
            return 0
        slot: DiskSlot = item.disk_slot
        cls = self.allocator.classes[item.clsid]
        nbytes = item.total_size
        scheme = self.schemes[slot.scheme_name]
        if slot.scheme_name == "direct":
            window = max(1, self.direct_read_chunks)
            nbytes = min(window * cls.chunk_size, self.allocator.page_size)
        if not slot.durable:
            # Asynchronous flush still in flight: the data is in the
            # staging buffer — serve it at memcpy speed.
            yield clock.sleep(item.total_size / self._flush_memcpy_bandwidth)
            self.stats.buffer_served_reads += 1
        else:
            yield from scheme.read(slot.offset + item.chunk_index * slot.chunk_size,
                                   nbytes, clock, trace=trace)
            self.stats.ssd_reads += 1
            self.stats.ssd_read_bytes += nbytes
            if self._metrics_on:
                self._m_ssd_reads.inc()
        if self._promotable(item):
            idx = item.chunk_index  # of its slot; alloc_chunk overwrites it
            page = self.allocator.alloc_chunk(cls, item)
            if page is None:
                info = StoreInfo()
                while page is None and self._promotable(item):
                    yield from self._make_space(cls, info)
                    idx = item.chunk_index
                    page = (self.allocator.alloc_chunk(cls, item)
                            if self._promotable(item) else None)
            if page is not None:
                self._remove_from_slot(item, idx)
                item.location = RAM
                cls.lru.insert_head(item)
                self.stats.promotions += 1
                if self._metrics_on:
                    self._m_promotions.inc()
        return nbytes

    def _promotable(self, item: Item) -> bool:
        """Still the live table entry, still on SSD (races resolve here)."""
        return (item.location == SSD and item.disk_slot is not None
                and self.table.get(item.key) is item)

    # -- preload (zero simulated time) ------------------------------------------

    def preload(self, key: bytes, value_length: int,
                expiration: float = 0.0,
                numeric: Optional[int] = None,
                hlc: Optional[tuple] = None) -> None:
        """Insert without simulated I/O time (experiment setup only).

        Applies the identical state transitions as :meth:`store` —
        including whole-page spills to SSD slots in hybrid mode — but no
        simulated time passes and the page cache is left cold. Like
        :meth:`store`, the item draws a fresh CAS token: every live item
        carries a unique, monotonically-assigned token (consistency
        checking leans on this; the counter survives :meth:`wipe`).
        """
        item = Item(key, value_length, expiration=expiration)
        item.numeric = numeric
        item.hlc = hlc
        self._cas_counter += 1
        item.cas = self._cas_counter
        cls = self.allocator.class_for(item.total_size)
        if cls is None:
            raise ValueError("preload object exceeds slab page size")
        info = StoreInfo()
        page = self.allocator.alloc_chunk(cls, item)
        while page is None:
            if self._steal_empty_page(cls):
                pass
            elif self.hybrid:
                victim = self._victim_page(cls)
                slot = self._spill_page(victim)
                slot.durable = True  # zero-time: there is no write to wait for
                self.allocator.recycle_page(victim, cls)
            else:
                self._evict_for(cls, info)
            page = self.allocator.alloc_chunk(cls, item)
        self._link(item, cls)

    def reset_metrics(self) -> None:
        """Zero the run-scoped counters; cache contents are untouched."""
        self.stats = ManagerStats()

    def live_items(self):
        """Yield ``(key, value_length, expiration, numeric, hlc)`` for
        every live, unexpired item (``hlc`` is None off HLC clusters).

        Read-only walk for anti-entropy resync: no LRU touches, no stat
        bumps, so donating data to a rejoining replica never perturbs
        the donor's metrics or recency state.
        """
        for key, item in self.table.items():
            if item.location == DEAD:
                continue
            if self._expired(item):
                continue
            yield (key, item.value_length, item.expiration, item.numeric,
                   item.hlc)

    def peek(self, key: bytes):
        """``(value_length, expiration, numeric, hlc)`` of the live,
        unexpired item under ``key``, or None.

        Read-only like :meth:`live_items` (no LRU touch, no stat bump,
        no passive-expiry reclaim): the migration transfer engine peeks
        items between cursor batches without perturbing the donor.
        """
        item = self.table.get(key)
        if item is None or item.location == DEAD or self._expired(item):
            return None
        return item.value_length, item.expiration, item.numeric, item.hlc

    def discard(self, key: bytes) -> bool:
        """Drop ``key`` without leaving a tombstone (zero simulated
        time). Used when data *moves* rather than dies: a migration
        donor dropping items the new view owns elsewhere, or undoing a
        copy that lost a race. Returns True when an entry was removed."""
        item = self.table.get(key)
        if item is None:
            return False
        self._remove_item(item)
        return True

    # -- last-writer-wins merge (anti-entropy resync) ---------------------------

    def hlc_accepts(self, key: bytes, hlc: Optional[tuple]) -> bool:
        """Would an incoming copy stamped ``hlc`` win the merge here?

        A ``None`` stamp (preload-era data) only fills a hole — it loses
        to any stamped item or tombstone, and to an unstamped item
        already present (the local copy is kept). A stamped copy must
        outrank both the local tombstone and the local item's stamp.
        """
        if hlc is None:
            return key not in self.table and key not in self.tombstones
        tomb = self.tombstones.get(key)
        if tomb is not None and tomb >= hlc:
            return False
        item = self.table.get(key)
        return not (item is not None and item.hlc is not None
                    and item.hlc >= hlc)

    def merge_item(self, key: bytes, value_length: int,
                   expiration: float = 0.0,
                   numeric: Optional[int] = None,
                   hlc: Optional[tuple] = None) -> bool:
        """Anti-entropy apply of one donated copy (zero simulated time,
        like :meth:`preload`): install it iff it wins the LWW merge.
        Returns True when the local state changed."""
        if not self.hlc_accepts(key, hlc):
            return False
        self.preload(key, value_length, expiration=expiration,
                     numeric=numeric, hlc=hlc)
        if hlc is not None:
            self.tombstones.pop(key, None)
        return True

    def apply_tombstone(self, key: bytes, hlc: tuple) -> bool:
        """Anti-entropy apply of one donated delete marker. Returns
        True when it removed a live item or advanced the local marker."""
        changed = False
        item = self.table.get(key)
        if item is not None and (item.hlc is None or item.hlc < hlc):
            self._remove_item(item)
            changed = True
        tomb = self.tombstones.get(key)
        if tomb is None or hlc > tomb:
            self.tombstones[key] = hlc
            changed = True
        return changed

    # -- occupancy diagnostics --------------------------------------------------

    @property
    def items_in_ram(self) -> int:
        return sum(len(c.lru) for c in self.allocator.classes)

    @property
    def items_on_ssd(self) -> int:
        return sum(s.live for s in self._live_slots.values())

    @property
    def live_slot_count(self) -> int:
        return len(self._live_slots)

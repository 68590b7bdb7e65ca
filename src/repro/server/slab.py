"""Slab memory management (memcached's allocator).

Memory is reserved in fixed-size *slab pages* (1 MiB by default) and each
page is assigned to a *slab class*; a class's page is divided into equal
chunks sized for that class. Classes grow geometrically from
``min_chunk`` by ``growth_factor`` up to the page size, exactly like
memcached's ``-f 1.25`` default.

This module is pure state — no simulated time. Timing of the *Slab
Allocation* stage is charged by the server around calls into it, and the
I/O that a hybrid flush performs lives in :mod:`repro.server.hybrid`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.server.item import Item
from repro.server.lru import LRUList
from repro.units import MB


class SlabPage:
    """One page of memory assigned to a slab class."""

    __slots__ = ("page_id", "clsid", "chunk_size", "capacity",
                 "items", "freed", "fresh")

    def __init__(self, page_id: int, clsid: int, chunk_size: int, page_size: int):
        self.page_id = page_id
        self.clsid = clsid
        self.chunk_size = chunk_size
        self.capacity = page_size // chunk_size
        #: chunk index -> Item (only chunks holding live items).
        self.items: dict[int, Item] = {}
        #: Returned chunk indices, reused last-in first-out.
        self.freed: List[int] = []
        #: Chunks ``fresh..capacity-1`` have never been used; they are
        #: handed out in ascending order once ``freed`` is empty.
        self.fresh = 0

    @property
    def used(self) -> int:
        return len(self.items)

    @property
    def free_count(self) -> int:
        return self.capacity - len(self.items)

    def alloc(self, item: Item) -> int:
        if self.freed:
            idx = self.freed.pop()
        else:
            idx = self.fresh
            self.fresh += 1
        self.items[idx] = item
        return idx

    def free(self, idx: int) -> None:
        del self.items[idx]
        self.freed.append(idx)


class SlabClass:
    """All pages and the LRU list for one chunk size."""

    __slots__ = ("clsid", "chunk_size", "pages", "partial", "lru")

    def __init__(self, clsid: int, chunk_size: int):
        self.clsid = clsid
        self.chunk_size = chunk_size
        self.pages: List[SlabPage] = []
        #: pages with at least one free chunk (allocation fast path).
        self.partial: List[SlabPage] = []
        self.lru = LRUList()

    @property
    def total_chunks(self) -> int:
        return sum(p.capacity for p in self.pages)

    @property
    def used_chunks(self) -> int:
        return sum(p.used for p in self.pages)


class SlabAllocator:
    """Bounded-memory slab page and chunk allocator."""

    def __init__(self, mem_limit: int, page_size: int = 1 * MB,
                 min_chunk: int = 96, growth_factor: float = 1.25):
        if page_size > mem_limit:
            raise ValueError("page_size exceeds mem_limit")
        self.mem_limit = mem_limit
        self.page_size = page_size
        self.total_pages = mem_limit // page_size
        self._next_page_id = 0
        self.classes: List[SlabClass] = []
        size = min_chunk
        clsid = 0
        while size < page_size:
            self.classes.append(SlabClass(clsid, size))
            clsid += 1
            nxt = int(size * growth_factor)
            # Align like memcached: sizes rounded to 8 bytes, always grow.
            size = max(nxt - nxt % 8, size + 8)
        self.classes.append(SlabClass(clsid, page_size))

    # -- class selection -----------------------------------------------------

    def class_for(self, total_size: int) -> Optional[SlabClass]:
        """Smallest class whose chunks fit ``total_size`` (None: too big)."""
        for cls in self.classes:
            if cls.chunk_size >= total_size:
                return cls
        return None

    # -- page accounting -------------------------------------------------------

    @property
    def assigned_pages(self) -> int:
        return self._next_page_id

    @property
    def unassigned_pages(self) -> int:
        return self.total_pages - self._next_page_id

    def grab_page(self, cls: SlabClass) -> Optional[SlabPage]:
        """Assign a fresh page to a class; None when memory is exhausted."""
        if self.unassigned_pages <= 0:
            return None
        page = SlabPage(self._next_page_id, cls.clsid, cls.chunk_size,
                        self.page_size)
        self._next_page_id += 1
        cls.pages.append(page)
        cls.partial.append(page)
        return page

    # -- chunk allocation ------------------------------------------------------

    def alloc_chunk(self, cls: SlabClass, item: Item) -> Optional[SlabPage]:
        """Place ``item`` into a chunk of ``cls``.

        Returns the page used, or None when the class has no free chunk
        and no unassigned memory remains (caller must evict or flush).
        """
        while cls.partial:
            page = cls.partial[-1]
            if len(page.items) < page.capacity:
                break
            cls.partial.pop()
        else:
            page = self.grab_page(cls)
            if page is None:
                return None
        idx = page.alloc(item)
        if len(page.items) == page.capacity:
            cls.partial.pop()
        item.clsid = cls.clsid
        item.page = page
        item.chunk_index = idx
        item.location = "ram"
        return page

    def free_chunk(self, item: Item) -> None:
        """Return an item's RAM chunk to its page's free list."""
        page: SlabPage = item.page
        assert page is not None, "item has no RAM chunk"
        had_free = len(page.items) < page.capacity
        page.free(item.chunk_index)
        if not had_free:
            self.classes[page.clsid].partial.append(page)
        item.page = None
        item.chunk_index = -1

    def recycle_page(self, page: SlabPage, to_cls: SlabClass) -> SlabPage:
        """Move an (emptied) page from its class to another class.

        Used after a victim flush: the raw memory is re-divided into the
        requesting class's chunk size.
        """
        assert page.used == 0, "recycling a non-empty page"
        old_cls = self.classes[page.clsid]
        old_cls.pages.remove(page)
        if page in old_cls.partial:
            old_cls.partial.remove(page)
        fresh = SlabPage(page.page_id, to_cls.clsid, to_cls.chunk_size,
                         self.page_size)
        to_cls.pages.append(fresh)
        to_cls.partial.append(fresh)
        return fresh

    # -- occupancy ---------------------------------------------------------------

    def stored_bytes(self) -> int:
        """Sum of total_size over all resident items (diagnostics)."""
        return sum(it.total_size
                   for cls in self.classes
                   for p in cls.pages
                   for it in p.items.values())

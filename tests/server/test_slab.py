"""Tests for slab classes, pages, and the bounded allocator."""

import gc
import tracemalloc

import pytest

from repro.server.item import ITEM_OVERHEAD, Item
from repro.server.slab import SlabAllocator
from repro.units import KB, MB


def test_class_sizes_grow_geometrically():
    alloc = SlabAllocator(16 * MB)
    sizes = [c.chunk_size for c in alloc.classes]
    assert sizes[0] == 96
    assert sizes == sorted(sizes)
    assert sizes[-1] == alloc.page_size
    for a, b in zip(sizes, sizes[1:-1]):
        assert b <= a * 1.3  # growth factor respected (with rounding)
    # All sizes 8-byte aligned except possibly the last (page-sized).
    assert all(s % 8 == 0 for s in sizes[:-1])


def test_class_for_picks_smallest_fitting():
    alloc = SlabAllocator(16 * MB)
    cls = alloc.class_for(100)
    assert cls.chunk_size >= 100
    idx = alloc.classes.index(cls)
    if idx > 0:
        assert alloc.classes[idx - 1].chunk_size < 100


def test_class_for_too_large_returns_none():
    alloc = SlabAllocator(16 * MB)
    assert alloc.class_for(2 * MB) is None
    assert alloc.class_for(alloc.page_size) is not None


def test_page_size_must_fit_mem_limit():
    with pytest.raises(ValueError):
        SlabAllocator(512 * KB, page_size=1 * MB)


def test_alloc_assigns_pages_lazily():
    alloc = SlabAllocator(4 * MB)
    assert alloc.assigned_pages == 0
    cls = alloc.class_for(1000)
    item = Item(b"k", 900)
    page = alloc.alloc_chunk(cls, item)
    assert page is not None
    assert alloc.assigned_pages == 1
    assert item.page is page and item.chunk_index >= 0
    assert item.clsid == cls.clsid


def test_alloc_exhausts_memory_returns_none():
    alloc = SlabAllocator(2 * MB, page_size=1 * MB)
    cls = alloc.class_for(500 * KB)
    items = []
    while True:
        item = Item(f"k{len(items)}".encode(), 500 * KB - 100)
        if alloc.alloc_chunk(cls, item) is None:
            break
        items.append(item)
    # 2 pages x (1MB // chunk) chunks were allocated.
    assert len(items) == 2 * (alloc.page_size // cls.chunk_size)
    assert alloc.unassigned_pages == 0


def test_free_chunk_enables_reuse():
    alloc = SlabAllocator(1 * MB, page_size=1 * MB)
    cls = alloc.class_for(400 * KB)
    assert alloc.page_size // cls.chunk_size == 2
    a = Item(b"a", 380 * KB)
    b = Item(b"b", 380 * KB)
    c = Item(b"c", 380 * KB)
    assert alloc.alloc_chunk(cls, a) is not None
    assert alloc.alloc_chunk(cls, b) is not None
    assert alloc.alloc_chunk(cls, c) is None  # full
    alloc.free_chunk(a)
    assert alloc.alloc_chunk(cls, c) is not None


def test_chunks_per_page():
    alloc = SlabAllocator(4 * MB)
    cls = alloc.class_for(32 * KB + ITEM_OVERHEAD + 10)
    item = Item(b"x" * 10, 32 * KB)
    page = alloc.alloc_chunk(cls, item)
    assert page.capacity == alloc.page_size // cls.chunk_size
    assert page.capacity >= 1


def test_recycle_page_moves_between_classes():
    alloc = SlabAllocator(1 * MB, page_size=1 * MB)
    small = alloc.class_for(200)
    big = alloc.class_for(200 * KB)
    item = Item(b"k", 100)
    page = alloc.alloc_chunk(small, item)
    alloc.free_chunk(item)
    fresh = alloc.recycle_page(page, big)
    assert fresh.clsid == big.clsid
    assert fresh.chunk_size == big.chunk_size
    assert page not in small.pages
    assert fresh in big.pages
    # Same physical memory: page id preserved.
    assert fresh.page_id == page.page_id


def test_recycle_nonempty_page_asserts():
    alloc = SlabAllocator(1 * MB, page_size=1 * MB)
    cls = alloc.class_for(200)
    item = Item(b"k", 100)
    page = alloc.alloc_chunk(cls, item)
    with pytest.raises(AssertionError):
        alloc.recycle_page(page, alloc.class_for(500))


def test_stored_bytes_accounting():
    alloc = SlabAllocator(4 * MB)
    cls = alloc.class_for(1024 + ITEM_OVERHEAD + 1)
    it = Item(b"k", 1024)
    alloc.alloc_chunk(cls, it)
    assert alloc.stored_bytes() == it.total_size


def test_used_and_total_chunks():
    alloc = SlabAllocator(2 * MB)
    cls = alloc.class_for(1000)
    for i in range(5):
        alloc.alloc_chunk(cls, Item(f"k{i}".encode(), 800))
    assert cls.used_chunks == 5
    assert cls.total_chunks >= 5


def test_chunks_are_reused_last_freed_first_then_fresh_in_order():
    """The order a free list of every index, popped from the end, gives:
    returned chunks last-in first-out, then never-used ones ascending."""
    alloc = SlabAllocator(4 * MB)
    cls = alloc.class_for(100 * KB)
    page = alloc.grab_page(cls)
    items = [Item(b"k%d" % i, 1) for i in range(page.capacity)]
    assert [page.alloc(it) for it in items[:5]] == [0, 1, 2, 3, 4]
    for idx in (3, 0, 4):
        page.free(idx)
    assert page.free_count == page.capacity - 2
    assert [page.alloc(it) for it in items[5:10]] == [4, 0, 3, 5, 6]


def grabbed_bytes(pages):
    """Traced bytes held by an allocator with ``pages`` fresh pages of
    its smallest chunk class."""
    gc.collect()
    tracemalloc.start()
    try:
        alloc = SlabAllocator(pages * MB)
        for _ in range(pages):
            assert alloc.grab_page(alloc.classes[0]) is not None
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(tracemalloc.is_tracing(),
                    reason="needs tracemalloc to itself")
def test_memory_per_slab_page_is_bounded():
    """What one more slab page of 96-byte chunks (10,922 of them) costs.
    CPython 3.11: ~429,000 B when its free list held every chunk index
    as an ``int``, ~270 B now that unused chunks come from a counter."""
    grabbed_bytes(2)  # one-time allocations of a first build
    per_page = (grabbed_bytes(10) - grabbed_bytes(2)) / 8
    assert per_page < 4096, per_page

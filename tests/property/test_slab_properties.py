"""Property-based tests for the slab allocator invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.item import Item
from repro.server.slab import SlabAllocator
from repro.units import KB, MB


def check_invariants(alloc: SlabAllocator) -> None:
    """Structural invariants that must hold after any op sequence."""
    seen_pages = set()
    for cls in alloc.classes:
        for page in cls.pages:
            assert page.page_id not in seen_pages, "page in two classes"
            seen_pages.add(page.page_id)
            assert page.clsid == cls.clsid
            # Occupied, returned and never-used chunks partition the
            # page: no chunk is both free and occupied, none is lost.
            assert 0 <= page.fresh <= page.capacity
            assert len(set(page.freed)) == len(page.freed)
            assert all(0 <= idx < page.fresh for idx in page.freed)
            assert not (set(page.items) & set(page.freed))
            assert set(page.items) <= set(range(page.fresh))
            assert page.used + len(page.freed) + (page.capacity - page.fresh) \
                == page.capacity == page.used + page.free_count
            for idx, item in page.items.items():
                assert item.page is page and item.chunk_index == idx
                assert item.total_size <= cls.chunk_size
        for page in cls.partial:
            assert page in cls.pages
    assert alloc.assigned_pages == len(seen_pages)
    assert alloc.assigned_pages <= alloc.total_pages


@st.composite
def op_sequences(draw):
    """Sequences of (alloc size | free index) operations."""
    n = draw(st.integers(min_value=1, max_value=120))
    ops = []
    for _ in range(n):
        if draw(st.booleans()):
            ops.append(("alloc", draw(st.integers(min_value=1,
                                                  max_value=200 * KB))))
        else:
            ops.append(("free", draw(st.integers(min_value=0,
                                                 max_value=1000))))
    return ops


@settings(max_examples=60, deadline=None)
@given(op_sequences())
def test_alloc_free_sequences_preserve_invariants(ops):
    alloc = SlabAllocator(4 * MB)
    live = []
    for kind, arg in ops:
        if kind == "alloc":
            item = Item(b"k%d" % len(live), max(0, arg - 60))
            cls = alloc.class_for(item.total_size)
            assert cls is not None
            page = alloc.alloc_chunk(cls, item)
            if page is not None:
                live.append(item)
        elif live:
            item = live.pop(arg % len(live))
            alloc.free_chunk(item)
        check_invariants(alloc)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=900 * KB),
                min_size=1, max_size=60))
def test_memory_never_oversubscribed(sizes):
    alloc = SlabAllocator(2 * MB)
    allocated_bytes = 0
    for i, size in enumerate(sizes):
        item = Item(b"x%d" % i, size)
        cls = alloc.class_for(item.total_size)
        if cls is None:
            continue
        if alloc.alloc_chunk(cls, item) is not None:
            allocated_bytes += cls.chunk_size
    # Chunk bytes can never exceed the configured memory limit.
    assert allocated_bytes <= alloc.mem_limit
    check_invariants(alloc)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=1 * MB))
def test_class_for_fits_and_is_minimal(size):
    alloc = SlabAllocator(4 * MB)
    cls = alloc.class_for(size)
    assert cls is not None
    assert cls.chunk_size >= size
    idx = alloc.classes.index(cls)
    if idx > 0:
        assert alloc.classes[idx - 1].chunk_size < size

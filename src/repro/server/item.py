"""Cache items.

An :class:`Item` records a stored key-value pair's metadata and where its
bytes live: a RAM slab chunk (``page``/``chunk_index``) or a chunk of an
SSD slot (``disk_slot``/``chunk_index``). The value bytes themselves are never
materialized — only sizes move through the simulation.
"""

from __future__ import annotations

from typing import Optional

#: memcached's per-item metadata overhead (struct _stritem + CAS), bytes.
ITEM_OVERHEAD = 56

RAM = "ram"
SSD = "ssd"
#: The item was removed/replaced while another worker still held a
#: reference to it (concurrent GET vs SET/flush races resolve to this).
DEAD = "dead"


class Item:
    """One stored key-value pair."""

    __slots__ = (
        "key", "value_length", "flags", "expiration", "cas",
        "clsid", "location", "page", "chunk_index",
        "disk_slot", "last_access",
        "lru_prev", "lru_next", "created", "numeric", "hlc",
    )

    def __init__(self, key: bytes, value_length: int, flags: int = 0,
                 expiration: float = 0.0):
        self.key = key
        self.value_length = value_length
        self.flags = flags
        self.expiration = expiration
        #: Store time (sim seconds); ``flush_all`` invalidates items
        #: created before its epoch. Touch/gat never update it.
        self.created: float = 0.0
        #: Counter value for items created/updated by incr/decr; None for
        #: ordinary opaque values (incr on those answers NOT_NUMERIC).
        self.numeric: Optional[int] = None
        #: Hybrid-logical-clock stamp of the write that produced this
        #: item (last-writer-wins replica merge); None when the cluster
        #: runs without HLC stamping or the item came from preload.
        self.hlc: Optional[tuple] = None
        self.cas = 0
        self.clsid: int = -1
        self.location: str = RAM
        self.page = None  # SlabPage when in RAM
        self.chunk_index: int = -1  # of ``page``, or of ``disk_slot``
        self.disk_slot = None  # DiskSlot when on SSD
        self.last_access: float = 0.0
        self.lru_prev: Optional["Item"] = None
        self.lru_next: Optional["Item"] = None

    @property
    def total_size(self) -> int:
        """Bytes this item needs in a slab chunk."""
        return len(self.key) + self.value_length + ITEM_OVERHEAD

    @property
    def in_ram(self) -> bool:
        return self.location == RAM

    @property
    def on_ssd(self) -> bool:
        return self.location == SSD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Item {self.key!r} len={self.value_length} cls={self.clsid} "
                f"loc={self.location}>")

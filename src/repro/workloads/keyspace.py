"""Key naming for workloads."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional

import numpy as np


@lru_cache(maxsize=16)
def _key_table(fmt: str, size: int) -> List[Optional[bytes]]:
    """The key objects of one keyspace, by index, each formatted the
    first time it is asked for. Shared by every :class:`Keyspace` of the
    same shape, so a preloaded dataset and every op stream drawn over
    it hold one ``bytes`` object per key."""
    return [None] * size


class Keyspace:
    """A dense keyspace ``prefix:00000042`` of ``size`` keys.

    Fixed-width suffixes keep key length (and therefore header size)
    constant across the keyspace, like YCSB's ``user########`` keys.
    """

    def __init__(self, size: int, prefix: str = "key", width: int = 10):
        if size < 1:
            raise ValueError("keyspace must hold at least one key")
        self.size = size
        self.prefix = prefix
        self.width = width
        self._fmt = f"{prefix}:%0{width}d"
        self._keys = _key_table(self._fmt, size)

    def key(self, index: int) -> bytes:
        if not 0 <= index < self.size:
            raise IndexError(f"key index {index} out of range")
        key = self._keys[index]
        if key is None:
            key = self._keys[index] = (self._fmt % index).encode()
        return key

    def keys_for(self, indices) -> List[bytes]:
        """Keys for an index array, each index's key formatted once per
        keyspace shape (this is the bulk path the vectorized generators
        use)."""
        arr = np.asarray(indices)
        if arr.size == 0:
            return []
        if arr.min() < 0 or arr.max() >= self.size:
            raise IndexError("key index out of range")
        keys = self._keys
        fmt = self._fmt
        idx = arr.tolist()
        for i in idx:
            if keys[i] is None:
                keys[i] = (fmt % i).encode()
        return [keys[i] for i in idx]

    def __len__(self) -> int:
        return self.size

    def all_keys(self):
        """Iterate every key (preload uses this)."""
        for i in range(self.size):
            yield self.key(i)

"""Key-to-server routing (libmemcached's distribution strategies)."""

from __future__ import annotations

import bisect
import hashlib
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple


def one_at_a_time(key: bytes) -> int:
    """Jenkins one-at-a-time hash — libmemcached's default key hash."""
    h = 0
    for b in key:
        h = (h + b) & 0xFFFFFFFF
        h = (h + (h << 10)) & 0xFFFFFFFF
        h ^= h >> 6
    h = (h + (h << 3)) & 0xFFFFFFFF
    h ^= h >> 11
    h = (h + (h << 15)) & 0xFFFFFFFF
    return h


class _Router:
    """What both distributions share: the ring size and a memo of each
    key's ring position.

    A key's position is a pure function of the key bytes and the ring,
    and workloads re-route the same (zipf-hot) keys constantly, so it is
    computed once per router (the per-byte hash loop or md5 + bisect)
    and every routing path starts from it. Bounded: the memo resets
    rather than evicts when it fills, which keeps the steady-state
    lookup a single dict hit.
    """

    MEMO_MAX = 1 << 20

    def __init__(self, num_servers: int):
        if num_servers < 1:
            raise ValueError("need at least one server")
        self.num_servers = num_servers
        self._memo: Dict[bytes, int] = {}

    def position(self, key: bytes) -> int:
        """The key's memoized ring position."""
        pos = self._memo.get(key)
        if pos is None:
            memo = self._memo
            if len(memo) >= self.MEMO_MAX:
                memo.clear()
            pos = memo[key] = self._locate(key)
        return pos

    def _locate(self, key: bytes) -> int:
        raise NotImplementedError


class ModuloRouter(_Router):
    """``hash(key) % n`` — libmemcached's default distribution.

    With ``alive`` (a set of live server indices), a key whose primary
    owner is dead rehashes deterministically to the next live index —
    libmemcached's ``AUTO_EJECT_HOSTS`` + rehash behaviour.
    """

    def _locate(self, key: bytes) -> int:
        return one_at_a_time(key) % self.num_servers

    def server_for(self, key: bytes,
                   alive: Optional[AbstractSet[int]] = None) -> int:
        idx = self.position(key)
        if alive is None or idx in alive:
            return idx
        if not alive:
            raise ValueError("no live servers")
        for step in range(1, self.num_servers):
            candidate = (idx + step) % self.num_servers
            if candidate in alive:
                return candidate
        raise ValueError("no live servers")  # pragma: no cover

    def ownership(self, alive: Optional[AbstractSet[int]] = None
                  ) -> List[float]:
        """Fraction of the keyspace owned by each server index.

        Exact for the router's placement rule: each of the ``n`` hash
        residues carries ``1/n`` of a uniform keyspace, and a residue
        whose primary is dead probes to the next live index — so the
        shares reflect the same rehash the request path uses.
        """
        shares = [0.0] * self.num_servers
        frac = 1.0 / self.num_servers
        for idx in range(self.num_servers):
            owner = idx
            if alive is not None and idx not in alive:
                owner = -1
                for step in range(1, self.num_servers):
                    candidate = (idx + step) % self.num_servers
                    if candidate in alive:
                        owner = candidate
                        break
                if owner < 0:
                    raise ValueError("no live servers")
            shares[owner] += frac
        return shares

    def replicas_for(self, key: bytes, n: int,
                     alive: Optional[AbstractSet[int]] = None
                     ) -> Sequence[int]:
        """Replica set for ``key``: the primary plus up to ``n - 1``
        distinct successor indices, skipping dead servers.

        The list is in preference order — ``[0]`` is where reads go
        first and always matches :meth:`server_for` under the same
        ``alive`` view, so replication composes with the dead-server
        rehash instead of fighting it. May return fewer than ``n``
        entries when too few servers are alive; raises when none are.
        """
        if n < 1:
            raise ValueError("need at least one replica")
        start = self.position(key)
        out: List[int] = []
        for step in range(self.num_servers):
            candidate = (start + step) % self.num_servers
            if alive is not None and candidate not in alive:
                continue
            out.append(candidate)
            if len(out) == n:
                break
        if not out:
            raise ValueError("no live servers")
        return out


class KetamaRouter(_Router):
    """Consistent hashing on a 160-point-per-server ring (ketama)."""

    POINTS_PER_SERVER = 160

    def __init__(self, num_servers: int):
        super().__init__(num_servers)
        ring: List[tuple[int, int]] = []
        for idx in range(num_servers):
            for p in range(self.POINTS_PER_SERVER // 4):
                digest = hashlib.md5(f"server{idx}-{p}".encode()).digest()
                for align in range(4):
                    point = int.from_bytes(digest[align * 4:(align + 1) * 4],
                                           "little")
                    ring.append((point, idx))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [o for _, o in ring]

    def _locate(self, key: bytes) -> int:
        """Index of the first ring point clockwise of the key's point."""
        point = int.from_bytes(hashlib.md5(key).digest()[:4], "little")
        i = bisect.bisect(self._points, point)
        return 0 if i == len(self._points) else i

    def server_for(self, key: bytes,
                   alive: Optional[AbstractSet[int]] = None) -> int:
        i = self.position(key)
        if alive is None:
            return self._owners[i]
        if not alive:
            raise ValueError("no live servers")
        # Dead-server rehash: walk the ring clockwise past dead owners,
        # so each dead server's keys spread over its ring successors.
        for step in range(len(self._owners)):
            owner = self._owners[(i + step) % len(self._owners)]
            if owner in alive:
                return owner
        raise ValueError("no live servers")  # pragma: no cover

    def ownership(self, alive: Optional[AbstractSet[int]] = None
                  ) -> List[float]:
        """Fraction of the keyspace owned by each server index.

        Exact for the ring: each arc ``(points[i-1], points[i]]`` maps
        to ``owners[i]`` (walking clockwise past dead owners), and md5
        spreads keys uniformly over the 2**32 point space, so arc width
        over the circle is the owned share.
        """
        shares = [0.0] * self.num_servers
        pts, owners = self._points, self._owners
        n = len(pts)
        circle = float(1 << 32)
        for i in range(n):
            if i == 0:
                width = pts[0] + ((1 << 32) - pts[n - 1])
            else:
                width = pts[i] - pts[i - 1]
            if not width:
                continue
            owner = -1
            for step in range(n):
                candidate = owners[(i + step) % n]
                if alive is None or candidate in alive:
                    owner = candidate
                    break
            if owner < 0:
                raise ValueError("no live servers")
            shares[owner] += width / circle
        return shares

    def replicas_for(self, key: bytes, n: int,
                     alive: Optional[AbstractSet[int]] = None
                     ) -> Sequence[int]:
        """Replica set for ``key``: the first ``n`` distinct live owners
        met walking the ring clockwise from the key's point.

        Ring-successor replication: the second replica is exactly where
        the dead-server rehash of :meth:`server_for` sends a key when
        its primary dies, so failover reads land on a server that holds
        the data. ``[0]`` always matches ``server_for`` under the same
        ``alive`` view.
        """
        if n < 1:
            raise ValueError("need at least one replica")
        i = self.position(key)
        out: List[int] = []
        seen = set()
        for step in range(len(self._owners)):
            owner = self._owners[(i + step) % len(self._owners)]
            if owner in seen:
                continue
            seen.add(owner)
            if alive is not None and owner not in alive:
                continue
            out.append(owner)
            if len(out) == n:
                break
        if not out:
            raise ValueError("no live servers")
        return out


def make_router(name: str, num_servers: int):
    """A fresh router: ``"modulo"`` or ``"ketama"`` over ``num_servers``
    ring slots, with an empty position memo.

    Anything that routes for a cluster takes its router from that
    cluster's :class:`RouterTable` instead, so clients, preload and
    migration share one instance (and one memo) per ring size and data
    is always placed exactly where the clients will look for it."""
    if name == "ketama":
        return KetamaRouter(num_servers)
    if name == "modulo":
        return ModuloRouter(num_servers)
    raise ValueError(f"unknown router {name!r}")


class RouterTable:
    """One memoized router per (kind, ring size), built on first use.

    A cluster owns one and hands it to every client; a client built on
    its own makes its own. A view change then switches to another
    entry instead of building a router (a 32-server ketama ring takes
    milliseconds), and a key's ring position is computed once per ring
    for the whole cluster rather than once per client.
    """

    def __init__(self):
        self._routers: Dict[Tuple[str, int], _Router] = {}

    def get(self, name: str, num_servers: int):
        router = self._routers.get((name, num_servers))
        if router is None:
            router = self._routers[name, num_servers] = make_router(
                name, num_servers)
        return router

"""Shared-resource primitives: counted resources and item stores.

Usage from a process::

    req = resource.request()
    yield req
    try:
        ...  # hold the resource
    finally:
        resource.release(req)

    yield store.put(item)
    item = yield store.get()
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.events import _PENDING, Event


class Request(Event):
    """Pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "granted_at")

    def __init__(self, resource: "Resource"):
        # Flattened Event.__init__ — one Request per resource claim
        # (server credits, device slots), squarely on the per-op path.
        self.sim = resource.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.resource = resource
        #: Sim time the slot was granted (None while queued). Lets
        #: holders report hold durations (e.g. credit hold time) without
        #: extra bookkeeping of their own.
        self.granted_at: Optional[float] = None


class Resource:
    """A counted resource with a FIFO wait queue.

    ``capacity`` concurrent holders; further requests queue in arrival
    order. Deterministic: ties broken by request order.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._holders: set[Request] = set()
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self)
        holders = self._holders
        if len(holders) < self.capacity:
            holders.add(req)
            sim = self.sim
            req.granted_at = sim._now
            # Inlined req._trigger(True, None): the request is fresh,
            # so the double-trigger check cannot fire.
            req._ok = True
            req._value = None
            sim._schedule_now(req)
        else:
            self._waiting.append(req)
        return req

    def claim(self) -> Request:
        """:meth:`request` for a claimant that continues inline: a free
        slot is granted already processed (nothing is queued, and a
        ``yield`` of it continues at once); a queued claim waits for its
        FIFO grant and the grant's lane hop, exactly as a request does."""
        req = Request(self)
        holders = self._holders
        if len(holders) < self.capacity:
            holders.add(req)
            req.granted_at = self.sim._now
            req._ok = True
            req._value = None
            req.callbacks = None
        else:
            self._waiting.append(req)
        return req

    def release(self, req: Request) -> None:
        holders = self._holders
        if req not in holders:
            raise SimulationError("releasing a request that does not hold the resource")
        holders.remove(req)
        if self._waiting:
            nxt = self._waiting.popleft()
            holders.add(nxt)
            sim = self.sim
            nxt.granted_at = sim._now
            nxt._ok = True
            nxt._value = None
            sim._schedule_now(nxt)

    def grant_all_waiting(self) -> int:
        """Grant every queued request immediately, ignoring capacity.

        Fault-path escape hatch: when the resource's owner dies, parked
        requesters must not wait forever on slots nobody will release.
        Returns the number of requests granted.
        """
        n = 0
        while self._waiting:
            nxt = self._waiting.popleft()
            self._holders.add(nxt)
            nxt.granted_at = self.sim.now
            nxt._trigger(True, None)
            n += 1
        return n


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, sim: Simulator, item: Any):
        # Flattened Event.__init__: store traffic allocates one of these
        # per put, squarely on the request hot path.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.item = item


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, sim: Simulator, filter: Optional[Callable[[Any], bool]] = None):
        # Flattened Event.__init__ (see StorePut).
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.filter = filter


class Store:
    """FIFO buffer of items with optional capacity.

    ``put`` blocks when full; ``get`` blocks when empty (or when no item
    matches the optional filter). Items are matched to getters in FIFO
    order; a filtered getter skips past non-matching items without
    consuming them.

    A put admitted on the spot is a notification nobody waits for yet:
    its event is processed at once and ``yield store.put(x)`` continues
    inline. A getter is a request and always takes one lane hop, fresh
    or parked (see :mod:`repro.sim.events`).
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def clear(self) -> int:
        """Drop all buffered items; returns how many were dropped.

        Queued putters are admitted afterwards (their items become the
        new buffer contents); waiting getters stay parked.
        """
        n = len(self.items)
        self.items.clear()
        if n:
            self._dispatch()
        return n

    def put(self, item: Any) -> StorePut:
        ev = StorePut(self.sim, item)
        self._putters.append(ev)
        self._dispatch()
        return ev

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        ev = StoreGet(self.sim, filter)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        items = self.items
        putters = self._putters
        getters = self._getters
        capacity = self.capacity
        while True:
            progress = False
            # Admit queued puts while there is room.
            while putters and len(items) < capacity:
                put = putters.popleft()
                items.append(put.item)
                put.succeed()
                progress = True
            # Unfiltered getters at the queue front (the overwhelming
            # case) are served without copying the getter queue or
            # scanning the buffer.
            while getters and items and getters[0].filter is None:
                getters.popleft()._trigger(True, items.popleft())
                progress = True
            # Anything left means a filtered getter heads the queue:
            # fall back to the full match scan, preserving FIFO getter
            # order and first-match item selection.
            if getters and items:
                for get in list(getters):
                    f = get.filter
                    match_idx = None
                    for idx, item in enumerate(items):
                        if f is None or f(item):
                            match_idx = idx
                            break
                    if match_idx is None:
                        continue
                    item = items[match_idx]
                    del items[match_idx]
                    getters.remove(get)
                    get._trigger(True, item)
                    progress = True
            if not progress:
                return


class Mailbox:
    """Unbounded, unfiltered FIFO handoff with no per-put event.

    The degenerate :class:`Store` — infinite capacity, no getter filters —
    covers most inter-component queues (endpoint inboxes, completion
    delivery), and for those the ``StorePut`` event per item is pure
    overhead: the putter never blocks, so nobody ever waits on it.
    ``put`` returns nothing (do **not** yield it). The hand-off is a
    call, not an event: ``put`` runs the oldest parked getter's waiter
    before it returns (or buffers the item), and ``get`` on a buffered
    item returns an already-processed event, so ``yield box.get()``
    continues without a turn of the loop.
    """

    __slots__ = ("sim", "items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def drain(self) -> list:
        """Drop all buffered items and return them, oldest first."""
        items = list(self.items)
        self.items.clear()
        return items

    def put(self, item: Any) -> None:
        getters = self._getters
        if getters:
            getters.popleft()._hand_off(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        items = self.items
        if items:
            # Already processed: the caller's ``yield`` continues inline
            # through ``Process._resume``'s processed branch.
            ev._ok = True
            ev._value = items.popleft()
            ev.callbacks = None
        else:
            self._getters.append(ev)
        return ev

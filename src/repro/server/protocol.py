"""Wire-level records exchanged between client and server.

Only metadata crosses the simulated wire; value *sizes* determine wire
and I/O costs. ``req_id`` values are unique per client connection and
match responses (and RDMA-written values) back to requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Bytes of a request header on the wire (opcode, key length, metadata).
REQUEST_HEADER_BYTES = 64
#: Bytes of a response header on the wire (status, flags, value length).
RESPONSE_HEADER_BYTES = 64

# Response status codes (mirroring memcached_return values).
STORED = "STORED"
NOT_STORED = "NOT_STORED"  # add on existing / replace on absent key
EXISTS = "EXISTS"  # cas token mismatch
HIT = "HIT"
MISS = "MISS"
DELETED = "DELETED"
NOT_FOUND = "NOT_FOUND"
TOUCHED = "TOUCHED"  # touch/gat refreshed the deadline
NOT_NUMERIC = "NOT_NUMERIC"  # incr/decr on a non-counter value
OK = "OK"  # flush_all acknowledged
ERROR = "ERROR"
#: Client-side verdict: the operation's server timed out past the retry
#: budget and no live replacement could serve it (fail-fast, never sent
#: by a server).
SERVER_DOWN = "SERVER_DOWN"


@dataclass(slots=True)
class Request:
    """One request header. ``op`` alone names the command; each
    handler reads the fields its command uses (docs/protocol.md)."""

    req_id: int
    op: str
    #: ``b""`` for the key-less flush and stats, and for an mget, whose
    #: keys travel in ``entries``.
    key: bytes
    #: Causal profile trace id of the issuing request (None: not
    #: sampled). Observability only — servers never branch on it.
    trace_id: Optional[int] = None
    value_length: int = 0
    flags: int = 0
    #: Deadline (absolute sim time; 0 = never) of a set, touch, gat or
    #: counter auto-create; flush's delay, in seconds from receipt.
    expiration: float = 0.0
    #: Set mode: "set", "add" (only if absent), "replace" (only if
    #: present), "cas" (only if ``cas_token`` matches).
    mode: str = "set"
    #: For mode "cas": the token the client observed on its last get.
    cas_token: int = 0
    #: True when a SET's value travels inside the same wire message as
    #: the header (IPoIB streams); False when it arrives separately via
    #: an RDMA write (see :class:`ValueArrival`).
    inline_value: bool = False
    #: True for replica-propagation copies of a set, delete, incr or
    #: decr. Replica SETs always inline their value, so the apply path
    #: never competes for the credits user traffic flows through.
    replica: bool = False
    #: Hybrid-logical-clock stamp ``(physical, logical, origin)`` of a
    #: set or delete under HLC convergence; None otherwise.
    hlc: Optional[tuple] = None
    #: incr/decr amount, applied in place (decr saturates at zero).
    delta: int = 1
    #: incr/decr auto-create (the meta protocol's N flag): an absent
    #: key starts at this value; None answers NOT_FOUND.
    initial: Optional[int] = None
    #: mget's ``(req_id, key)`` entries, one :class:`Response` each.
    entries: tuple = ()
    #: Per-entry trace ids when the issuing client profiles; else ().
    traces: tuple = ()

    @property
    def header_bytes(self) -> int:
        n = REQUEST_HEADER_BYTES + len(self.key)
        for _, key in self.entries:
            n += len(key) + 8
        return n


@dataclass(slots=True)
class ValueArrival:
    """The payload of an RDMA-written SET value: a polled write into a
    server receive buffer.

    ``credit`` is the receive-buffer credit the client's communication
    engine acquired before the write; the server releases it when the
    buffer is consumed (late for the default design, early for the
    optimized one — Section V-B1). ``landed_at`` is the instant the
    value's last byte lands, stamped by the server's poller from the
    in-flight message as the write is handed over.
    """

    req_id: int
    nbytes: int
    credit: Any = None
    landed_at: float = 0.0


@dataclass(slots=True)
class BufferAck:
    """Optimized-server notification that a SET's value is staged.

    Section V-B1: "the server buffers the client's request and data, and
    notifies the client that its buffer can be re-used". ``bset`` blocks
    until this ack; the operation's *completion* still arrives separately
    after the slab/cache phases.
    """

    req_id: int

    @property
    def header_bytes(self) -> int:
        return 32


@dataclass(slots=True)
class Response:
    req_id: int
    op: str
    status: str
    value_length: int = 0
    #: stats-command payload: server counter snapshot.
    stats_payload: Optional[Dict[str, float]] = None
    #: CAS token of the item (get responses; 0 when not applicable).
    cas_token: int = 0
    #: Result of incr/decr arithmetic (0 when not applicable).
    counter_value: int = 0

    @property
    def header_bytes(self) -> int:
        return RESPONSE_HEADER_BYTES

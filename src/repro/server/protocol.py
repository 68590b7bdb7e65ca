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
    req_id: int
    op: str
    key: bytes
    #: Causal profile trace id of the issuing client request (None when
    #: the request is not sampled). Observability only — servers must
    #: never branch on it.
    trace_id: Optional[int] = None

    @property
    def header_bytes(self) -> int:
        return REQUEST_HEADER_BYTES + len(self.key)


@dataclass(slots=True)
class SetRequest(Request):
    value_length: int = 0
    flags: int = 0
    expiration: float = 0.0
    #: Storage mode: "set" (unconditional), "add" (only if absent),
    #: "replace" (only if present), "cas" (only if the token matches).
    mode: str = "set"
    #: For mode "cas": the token the client observed on its last get.
    cas_token: int = 0
    #: True when the value travels inside the same wire message as the
    #: header (IPoIB streams); False when it arrives separately via an
    #: RDMA write (see :class:`ValueArrival`).
    inline_value: bool = False
    #: True for replica-propagation copies of a client write. Replica
    #: SETs always inline their value so the apply path never competes
    #: for the receive-buffer credits user traffic flows through.
    replica: bool = False
    #: Hybrid-logical-clock stamp (``(physical, logical, origin)``)
    #: when the cluster runs with HLC convergence; None otherwise.
    hlc: Optional[tuple] = None

    def __post_init__(self):
        self.op = "set"


@dataclass(slots=True)
class GetRequest(Request):
    def __post_init__(self):
        self.op = "get"


@dataclass(slots=True)
class DeleteRequest(Request):
    #: True for replica-propagation copies of a client delete (the
    #: removal counterpart of ``SetRequest.replica``).
    replica: bool = False
    #: HLC stamp of the delete (tombstone order); None without HLC.
    hlc: Optional[tuple] = None

    def __post_init__(self):
        self.op = "delete"


@dataclass(slots=True)
class TouchRequest(Request):
    """memcached's ``touch``: refresh an item's expiration in place."""

    expiration: float = 0.0

    def __post_init__(self):
        self.op = "touch"


@dataclass(slots=True)
class CounterRequest(Request):
    """memcached's ``incr``/``decr`` (meta-protocol arithmetic).

    The server performs the arithmetic in place — only the resulting
    value crosses the wire back, never the operand bytes.
    """

    delta: int = 1
    #: None: plain incr/decr (absent key answers NOT_FOUND). An int:
    #: auto-create — an absent key is initialized to this value (the
    #: meta protocol's N flag), installing ``expiration``.
    initial: Optional[int] = None
    #: TTL installed on auto-create (absolute sim time; 0 = never).
    expiration: float = 0.0
    direction: str = "incr"  # "incr" | "decr" (decr saturates at zero)
    #: True for replica-propagation copies (counters fan out like SETs;
    #: each replica applies the arithmetic independently).
    replica: bool = False

    def __post_init__(self):
        self.op = self.direction


@dataclass(slots=True)
class GatRequest(Request):
    """memcached's ``gat``: get-and-touch in one round trip."""

    #: New deadline (absolute sim time; 0 = never). A deadline already
    #: in the past serves the value one last time and removes the item.
    expiration: float = 0.0

    def __post_init__(self):
        self.op = "gat"


@dataclass(slots=True)
class FlushRequest(Request):
    """memcached's ``flush_all``: epoch-invalidate the whole cache.

    ``delay`` seconds from server receipt, every item created before
    the epoch becomes invisible; chunk reclaim is lazy plus the expiry
    sweeper.
    """

    delay: float = 0.0

    def __post_init__(self):
        self.op = "flush"
        self.key = b""


@dataclass(slots=True)
class StatsRequest(Request):
    """memcached's ``stats`` command: fetch server counters."""

    def __post_init__(self):
        self.op = "stats"
        self.key = b""


@dataclass(slots=True)
class MultiGetRequest(Request):
    """libmemcached's ``memcached_mget``: one request, many keys.

    ``entries`` maps each key to the per-key request id its response
    answers; the server streams one :class:`Response` per key.
    """

    entries: tuple = ()  # of (req_id, key)
    #: Parallel per-entry trace ids (same length as ``entries`` when the
    #: issuing client profiles; empty otherwise).
    traces: tuple = ()

    def __post_init__(self):
        self.op = "mget"

    @property
    def header_bytes(self) -> int:
        return (REQUEST_HEADER_BYTES
                + sum(len(k) + 8 for _, k in self.entries))


@dataclass(slots=True)
class ValueArrival:
    """Marks the landing of an RDMA-written SET value in a server buffer.

    ``credit`` is the receive-buffer credit the client's communication
    engine acquired before the write; the server releases it when the
    buffer is consumed (late for the default design, early for the
    optimized one — Section V-B1).
    """

    req_id: int
    nbytes: int
    credit: Any = None


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

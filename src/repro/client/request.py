"""The ``memcached_req`` structure and per-operation records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.server.protocol import Response
from repro.sim import Event, Simulator


@dataclass(frozen=True, slots=True)
class ReqResult:
    """Uniform completion view of one operation.

    ``wait`` returns the request, ``wait_all`` a list, ``test`` a bool —
    but the outcome of any of them is read the same way: call
    ``req.result()`` once the operation is done. ``ok`` folds the
    status zoo down to "did the data operation succeed".
    """

    op: str
    api: str
    status: str
    value_length: int
    latency: float
    blocked_time: float
    cas_token: int = 0
    server_index: int = -1
    key: bytes = b""
    req_id: int = -1
    t_issue: float = 0.0
    t_complete: float = 0.0
    #: Deadline the op carried (sets/touch/gat; counter auto-create TTL;
    #: for flush_all the relative delay). 0.0 = none.
    expiration: float = 0.0
    #: Result of incr/decr arithmetic (0 when not applicable).
    counter_value: int = 0
    #: True for incr/decr issued with an ``initial`` (auto-create).
    auto_create: bool = False
    #: HLC stamp the write carried (HLC-convergent clusters only).
    hlc: Optional[tuple] = None

    #: Statuses that mean the operation did what was asked.
    _OK = frozenset({"STORED", "HIT", "DELETED", "TOUCHED", "OK"})

    @property
    def ok(self) -> bool:
        return self.status in self._OK

    @property
    def pending(self) -> bool:
        return self.status == "PENDING"

    @property
    def hit(self) -> bool:
        """Did a read find the item in the cache (status ``HIT``)."""
        return self.status == "HIT"


class MemcachedReq:
    """Handle for one outstanding (possibly non-blocking) operation.

    Mirrors the paper's ``memcached_req``: a completion flag the user can
    test or wait on, plus bookkeeping the runtime uses for buffer-reuse
    guarantees and latency attribution.
    """

    __slots__ = (
        "req_id", "op", "key", "value_length", "api",
        "complete", "_buffer_safe", "_wire_msg", "_ack_msg", "_safe",
        "status", "response", "cas_token",
        "t_issue", "t_api_return", "t_complete",
        "blocked_time", "miss_penalty", "server_index", "trace_id",
        "expiration", "counter_value", "hlc",
        "flags", "mode", "cas_send", "delta", "initial", "recorded", "user",
    )

    def __init__(self, sim: Simulator, req_id: int, op: str, key: bytes,
                 value_length: int, api: str, flags: int = 0,
                 mode: str = "set", cas_send: int = 0, delta: int = 0,
                 initial: Optional[int] = None):
        self.req_id = req_id
        self.op = op
        self.key = key
        self.value_length = value_length
        #: which API issued it: "set"/"get"/"iset"/"iget"/"bset"/"bget"
        self.api = api
        #: Triggers when the operation's completion reaches the client.
        self.complete: Event = Event(sim)
        # Buffer-reuse state behind the lazy ``buffer_safe`` event: the
        # message whose going on the wire frees the buffers, the
        # server's BufferAck whose landing does, and whether they were
        # declared free some other way (a give-up).
        self._buffer_safe: Optional[Event] = None
        self._wire_msg = None
        self._ack_msg = None
        self._safe = False
        self.status: Optional[str] = None
        self.response: Optional[Response] = None
        #: CAS token observed on the last get / assigned by the store.
        self.cas_token: int = 0
        self.t_issue: float = 0.0
        self.t_api_return: float = 0.0
        self.t_complete: float = 0.0
        #: Total time the client spent blocked inside API calls for this op.
        self.blocked_time: float = 0.0
        #: Backend fetch time of a failed GET; None: no fetch (0.0 is one).
        self.miss_penalty: Optional[float] = None
        self.server_index: int = -1
        #: Causal profile trace id (None unless this request is sampled).
        self.trace_id: Optional[int] = None
        #: Deadline carried by the op (absolute sim time; flush: delay).
        self.expiration: float = 0.0
        #: incr/decr arithmetic result, filled from the response.
        self.counter_value: int = 0
        #: HLC stamp carried by a set/delete (HLC clusters only).
        self.hlc: Optional[tuple] = None
        # The rest of the request header. It lives here, with
        # ``expiration`` and ``hlc``, so that every attempt (a retry
        # sends the header again) carries what the first one did.
        self.flags = flags
        #: Store mode: "set" / "add" / "replace" / "cas".
        self.mode = mode
        #: CAS token to send (``cas_token`` above is the one received).
        self.cas_send = cas_send
        #: incr/decr amount, and the auto-create value (None: no create).
        self.delta = delta
        self.initial = initial
        #: The client finished this operation (record, history, span):
        #: what makes ``wait``/``test`` on it idempotent afterwards.
        self.recorded = False
        #: A user-visible operation: recorded, and its blocked time is
        #: the client's (False: a miss's repopulating set).
        self.user = True

    @property
    def done(self) -> bool:
        return self.complete.triggered

    @property
    def auto_create(self) -> bool:
        """incr/decr issued with auto-create (``initial`` given)."""
        return self.initial is not None

    # -- buffer reuse ----------------------------------------------------

    @property
    def buffer_safe(self) -> Event:
        """Triggers when the user's key/value buffers may be reused.

        Only ``bset``/``bget`` (and callers that ask) ever look, so the
        event is created on first access: already processed if the
        reuse point has passed, armed on the request message's
        ``on_wire`` or the BufferAck's ``delivered`` if that message is
        in flight, otherwise armed by :meth:`reuse_point` /
        :meth:`ack_point` when it is sent. An operation nobody asks
        costs neither this event nor the message's.
        """
        ev = self._buffer_safe
        if ev is None:
            ev = self._buffer_safe = Event(self.complete.sim)
            if self._safe:
                ev.succeed()
            else:
                if self._wire_msg is not None:
                    self._arm(self._wire_msg.on_wire)
                if self._ack_msg is not None and not ev.triggered:
                    self._arm(self._ack_msg.delivered)
        return ev

    def reuse_point(self, msg) -> None:
        """The engine sent ``msg``; once it is on the wire this
        operation's buffers are free. A retry sends another message:
        the earliest on-wire point counts, and all of one client's
        messages leave through one NIC in send order, so the first
        message is the one remembered."""
        if self._wire_msg is None:
            self._wire_msg = msg
        ev = self._buffer_safe
        if ev is not None and not ev.triggered:
            self._arm(msg.on_wire)

    def ack_point(self, msg) -> None:
        """The server sent its BufferAck ``msg``, a write the client
        polls for: once it lands this operation's buffers are free. A
        retry may draw an ack from a second server; the one that lands
        first counts."""
        ack = self._ack_msg
        if ack is None or msg.delivered_at < ack.delivered_at:
            self._ack_msg = msg
        ev = self._buffer_safe
        if ev is not None and not ev.triggered:
            self._arm(msg.delivered)

    def _arm(self, milestone: Event) -> None:
        if milestone.processed:
            self.mark_buffer_safe()
        else:
            milestone.callbacks.append(self.mark_buffer_safe)

    def mark_buffer_safe(self, _milestone: Optional[Event] = None) -> None:
        """The buffers are free now. Idempotent: a BufferAck, a give-up
        (SERVER_DOWN) and each attempt's ``on_wire`` may all report it."""
        ev = self._buffer_safe
        if ev is None:
            self._safe = True
        elif not ev.triggered:
            ev.succeed()

    @property
    def latency(self) -> float:
        """Issue-to-completion time (valid once done)."""
        return self.t_complete - self.t_issue

    @property
    def overlap_fraction(self) -> float:
        """Share of the op's lifetime the client was free to compute.

        1.0 means fully overlappable (client never blocked); 0.0 means
        the client was blocked for the whole operation (blocking APIs).
        """
        life = self.t_complete - self.t_issue
        if life <= 0:
            return 0.0
        return max(0.0, 1.0 - self.blocked_time / life)

    def result(self) -> ReqResult:
        """Uniform outcome view (see :class:`ReqResult`).

        Safe to call at any time: an operation still in flight reports
        status ``"PENDING"`` with a zero latency, so callers can treat
        the return values of ``wait``, ``wait_all``, and polled requests
        identically.
        """
        done = self.done
        return ReqResult(op=self.op, api=self.api,
                         status=(self.status or "?") if done else "PENDING",
                         value_length=self.value_length,
                         latency=self.latency if done else 0.0,
                         blocked_time=self.blocked_time,
                         cas_token=self.cas_token,
                         server_index=self.server_index,
                         key=self.key, req_id=self.req_id,
                         t_issue=self.t_issue,
                         t_complete=self.t_complete if done else 0.0,
                         expiration=self.expiration,
                         counter_value=self.counter_value,
                         auto_create=self.auto_create,
                         hlc=self.hlc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.status or ("pending" if not self.done else "done")
        return f"<MemcachedReq #{self.req_id} {self.api} {self.key!r} {state}>"


@dataclass(slots=True)
class OpRecord:
    """Immutable per-operation record kept for metrics."""

    op: str
    api: str
    key_length: int
    value_length: int
    status: str
    t_issue: float
    t_complete: float
    blocked_time: float
    #: Backend fetch time of a failed GET; None when no fetch happened.
    miss_penalty: Optional[float] = None
    server_index: int = -1
    #: The operation's causal-profile trace (None unless it was sampled).
    trace_id: Optional[int] = None

    @property
    def stages(self) -> Dict[str, float]:
        """``{"miss_penalty": x}`` after a backend fetch, else ``{}``:
        read-only, kept only because ``benchmarks/kvbench/measure.py``
        reads ``rec.stages.get("miss_penalty")``. Use ``miss_penalty``."""
        return {} if self.miss_penalty is None else {
            "miss_penalty": self.miss_penalty}

    @property
    def latency(self) -> float:
        return self.t_complete - self.t_issue

    @property
    def overlap_fraction(self) -> float:
        life = self.latency
        if life <= 0:
            return 0.0
        return max(0.0, 1.0 - self.blocked_time / life)

    @classmethod
    def from_req(cls, req: MemcachedReq) -> "OpRecord":
        return cls(op=req.op, api=req.api, key_length=len(req.key),
                   value_length=req.value_length, status=req.status or "?",
                   t_issue=req.t_issue, t_complete=req.t_complete,
                   blocked_time=req.blocked_time,
                   miss_penalty=req.miss_penalty,
                   server_index=req.server_index, trace_id=req.trace_id)

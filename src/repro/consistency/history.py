"""Client-observed operation histories.

A **history** is the list of every client-visible operation as an
invocation/response interval: ``(t_issue, t_complete, op, key,
written-or-observed cas_token, status)`` plus enough identity (client,
req_id, server, replica parentage) to attribute reads to writes. CAS
tokens are the write identifiers: every server assigns them from one
per-server monotonic counter (``HybridSlabManager._cas_counter``), so a
``HIT`` carrying token *c* on server *s* names exactly one apply event
on *s* — the preload/anti-entropy path draws tokens from the same
counter, and the counter survives ``wipe()``, so tokens are never
reused within a run.

Recording is opt-in and zero-cost when off: :class:`HistoryRecorder`
plugs into ``MemcachedClient.recorder`` and consumes only
``req.result()`` snapshots (:class:`~repro.client.request.ReqResult`)
at issue and completion time — it never touches request internals.

Event order and serialization are deterministic: events are emitted in
completion order (itself deterministic for a fixed seed), and
:func:`to_jsonl` sorts keys and canonicalizes floats, so the same seed
produces a **byte-identical** history on every replay (the golden
request-path digests hash it).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["HistoryEvent", "HistoryRecorder", "record_run",
           "to_jsonl", "from_jsonl"]


@dataclass(frozen=True, slots=True)
class HistoryEvent:
    """One completed (or still-pending at run end) client operation."""

    client: str
    req_id: int
    op: str          # set / get / delete / touch / incr / decr / gat / flush
    api: str         # set/get/add/replace/cas/iset/iget/bset/bget/mget/
                     # incr/decr/gat/flush/replica
    key: str         # latin-1 decoded key bytes
    status: str      # STORED/HIT/MISS/.../SERVER_DOWN/PENDING
    cas_token: int   # token written (STORED) or observed (HIT); else 0
    value_length: int
    t_issue: float
    t_complete: float  # -1.0 when the op never completed (PENDING)
    server: int      # connection that answered (or last attempt; -1 unknown)
    user: bool       # False: replica propagation / miss repopulation
    parent: int = -1  # parent req_id for api="replica" sub-requests
    #: Deadline the op carried (absolute sim time; 0.0 = none). For
    #: flush_all this is the relative delay instead.
    expiration: float = 0.0
    #: incr/decr issued with an ``initial`` (auto-create allowed).
    auto_create: bool = False
    #: HLC stamp carried by a set/delete on HLC-convergent clusters
    #: (``(physical, logical, origin)``); None otherwise. The eventual
    #: checker justifies the post-quiesce winner against these.
    hlc: Optional[tuple] = None

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.t_issue, self.t_complete)


class HistoryRecorder:
    """Collects one history across every client of a cluster.

    Usage::

        rec = HistoryRecorder()
        rec.attach(cluster)       # after build + preload
        ...  # run the workload
        events = rec.finish()     # flushes never-completed ops as PENDING

    ``initial_tokens`` snapshots the preloaded items per (server, key):
    ``{(server_index, key): (cas_token, value_length)}`` — the checker's
    initial state.
    """

    def __init__(self) -> None:
        self.events: List[HistoryEvent] = []
        #: (server_index, key) -> (cas_token, value_length) at attach time.
        self.initial_tokens: Dict[Tuple[int, str], Tuple[int, int]] = {}
        self._open: Dict[Tuple[str, int], tuple] = {}
        self._clients: list = []
        self._sim = None
        self._finished = False

    # -- wiring ------------------------------------------------------------

    def attach(self, cluster) -> "HistoryRecorder":
        """Hook every client of ``cluster`` and snapshot server state."""
        self._sim = cluster.sim
        for client in cluster.clients:
            client.recorder = self
            self._clients.append(client)
        for idx, server in enumerate(cluster.servers):
            for key, item in server.manager.table.items():
                self.initial_tokens[(idx, key.decode("latin-1"))] = (
                    item.cas, item.value_length)
        return self

    def detach(self) -> None:
        for client in self._clients:
            if client.recorder is self:
                client.recorder = None
        self._clients.clear()

    # -- client hooks (consume only ReqResult snapshots) -------------------

    def on_issue(self, client: str, res, parent: int = -1) -> None:
        self._open[(client, res.req_id)] = (res, parent)

    def on_complete(self, client: str, res, user: bool = True,
                    parent: int = -1) -> None:
        opened = self._open.pop((client, res.req_id), None)
        if opened is not None and parent == -1:
            parent = opened[1]
        # The linearizability "response" time is the moment the client
        # *observed* completion (control returned / callback fired) —
        # for a sync write that is after the replica-ack barrier, not
        # the primary's response arrival.
        now = self._sim.now if self._sim is not None else None
        self.events.append(self._event(client, res, user=user,
                                       parent=parent, now=now))

    # -- lifecycle ---------------------------------------------------------

    def finish(self) -> List[HistoryEvent]:
        """Flush operations that never completed as ``PENDING`` events
        (possibly-applied writes for the checker) and return the full
        event list. Idempotent."""
        if not self._finished:
            self._finished = True
            leftovers = sorted(
                self._open.items(),
                key=lambda kv: (kv[1][0].t_issue, kv[0][0], kv[0][1]))
            for (client, _req_id), (res, parent) in leftovers:
                self.events.append(self._event(
                    client, res, user=res.api != "replica", parent=parent,
                    pending=True))
            self._open.clear()
        return self.events

    @staticmethod
    def _event(client: str, res, user: bool, parent: int,
               pending: bool = False,
               now: Optional[float] = None) -> HistoryEvent:
        if pending or res.pending:
            t_complete = -1.0
        else:
            t_complete = res.t_complete if now is None else now
        return HistoryEvent(
            client=client,
            req_id=res.req_id,
            op=res.op,
            api=res.api,
            key=res.key.decode("latin-1"),
            status="PENDING" if pending or res.pending else res.status,
            cas_token=res.cas_token,
            value_length=res.value_length,
            t_issue=res.t_issue,
            t_complete=t_complete,
            server=res.server_index,
            user=user,
            parent=parent,
            expiration=res.expiration,
            auto_create=res.auto_create,
            hlc=res.hlc,
        )


def record_run(cluster) -> HistoryRecorder:
    """Convenience: attach a fresh recorder to ``cluster``."""
    return HistoryRecorder().attach(cluster)


# -- serialization (deterministic; used for CI artifacts) -------------------


def to_jsonl(events: List[HistoryEvent]) -> str:
    """One canonical JSON object per line: sorted keys, repr floats —
    byte-identical for identical histories."""
    lines = []
    for ev in events:
        d = asdict(ev)
        lines.append(json.dumps(d, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def from_jsonl(text: str) -> List[HistoryEvent]:
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            d = json.loads(line)
            if d.get("hlc") is not None:
                d["hlc"] = tuple(d["hlc"])  # JSON arrays round-trip
            events.append(HistoryEvent(**d))
    return events

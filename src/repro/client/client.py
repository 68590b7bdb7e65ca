"""The Memcached client: blocking APIs plus the non-blocking extensions.

Architecture (paper Figure 3):

* API methods hand operations to the client's **communication engine**
  (one background process per client, mirroring libmemcached's RDMA
  runtime). The engine serializes operations onto the NIC, obeys the
  server's receive-buffer credits for SET values, and arms the
  buffer-reuse events.
* The **response path** matches server responses (and RDMA-written
  GET values) back to outstanding ``memcached_req`` handles and raises
  their completion flags: the connection endpoint's receiver, called as
  each response is delivered on RDMA and once the socket's kernel
  receive CPU is spent on IPoIB. No connection keeps a process.
* ``iset``/``iget`` return as soon as the request is queued on the
  engine; ``bset`` returns when the value has left the user buffer;
  ``bget`` returns when the request header is on the wire; ``wait``/
  ``test`` complete operations, exactly as specified in Section IV.

Every API method is a generator: drive it with ``yield from`` inside a
simulation process. Time the client spends blocked inside these
generators is accounted per operation; it is the basis of the overlap
measurements (Figure 7a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.client.backend import BackendDatabase
from repro.client.buffers import BufferPool
from repro.client.hashing import RouterTable
from repro.client.request import MemcachedReq, OpRecord
from repro.net.transport import Endpoint
from repro.obs.api import NULL_OBS, Observability
from repro.obs.profile import profile_message
from repro.server.protocol import (
    HIT,
    MISS,
    SERVER_DOWN,
    BufferAck,
    CounterRequest,
    DeleteRequest,
    FlushRequest,
    GatRequest,
    GetRequest,
    MultiGetRequest,
    Response,
    SetRequest,
    StatsRequest,
    TouchRequest,
    ValueArrival,
)
from repro.server.server import MemcachedServer
from repro.sim import Mailbox, Simulator
from repro.units import US


class UnsupportedOperation(RuntimeError):
    """Raised when a design without non-blocking support is asked for it."""


@dataclass(frozen=True)
class ClientConfig:
    """Client-side behaviour knobs."""

    #: CPU cost of entering/leaving one client API call.
    api_overhead: float = 0.3 * US
    #: CPU the communication engine spends per operation (request
    #: preparation, registration-cache lookup, server selection).
    engine_cpu: float = 1.0 * US
    #: False for the existing designs (IPoIB-Mem, RDMA-Mem, H-RDMA-Def):
    #: iset/iget/bset/bget raise UnsupportedOperation.
    nonblocking_allowed: bool = True
    #: Keep per-operation records for metrics (experiments need this).
    record_ops: bool = True
    #: "modulo" (libmemcached default) or "ketama".
    router: str = "modulo"
    #: Model RDMA memory-registration costs with a registered-buffer
    #: pool (Section IV's motivation for the b-variants). Off by
    #: default: the paper's runs use warmed registration caches.
    model_registration: bool = False
    # -- fault tolerance (None/defaults preserve pre-fault behaviour) ------
    #: Per-request completion timeout in seconds. ``None`` disables all
    #: fault handling: a silent server blocks the caller forever (the
    #: pre-fault-tolerance behaviour, and the fastest path).
    request_timeout: Optional[float] = None
    #: Reissues after the first timeout before giving up on the op.
    max_retries: int = 2
    #: First retry backoff; doubles (``backoff_multiplier``) per retry.
    retry_backoff: float = 200 * US
    backoff_multiplier: float = 2.0
    #: Consecutive timeouts on one connection before the server is
    #: ejected from the routing ring (0 disables ejection).
    failure_threshold: int = 2
    #: Seconds after which an ejected server is probed again (``None``
    #: ejects forever — use when there is no restart story).
    eject_duration: Optional[float] = None
    # -- replication (R=1 preserves single-copy behaviour) ------------------
    #: Copies of each key: the primary plus R-1 ring/probe successors
    #: (see ``replicas_for`` on the routers). 1 disables replication.
    replication_factor: int = 1
    #: "sync": a write acks only after every replica applied it (waits
    #: bounded by ``request_timeout`` so a dead replica cannot wedge the
    #: caller); "async": ack after the primary alone, replica copies
    #: propagate through the engine in the background.
    write_mode: str = "sync"
    #: Stamp every set/delete with a hybrid logical clock so replicas
    #: merge last-writer-wins (HLC-convergent async replication).
    hlc: bool = False


@dataclass(slots=True)
class ServerConn:
    """One connection from this client to one server."""

    index: int
    endpoint: Endpoint
    server: Optional[MemcachedServer]  # None => remote credits unavailable
    #: Cached ``endpoint.supports_one_sided`` (a per-op property call
    #: otherwise) — the transport kind never changes on a live conn.
    one_sided: bool = False
    #: Cached ``server.config.early_ack`` (False for remote conns).
    early_ack: bool = False
    # -- client-side health view (driven by completion timeouts only) ------
    healthy: bool = True
    consecutive_timeouts: int = 0
    #: Sim time at which an ejected server becomes routable again
    #: (``None`` while healthy, or ejected forever).
    ejected_until: Optional[float] = None


@dataclass(slots=True)
class _EngineJob:
    """One queued client-engine dispatch.

    Jobs live only from ``_issue`` to the engine loop's unpack, so the
    client recycles them through a free list (``_job_new``) — one of the
    pooled hot-path objects that keep the per-op allocation count flat.
    """

    req: MemcachedReq
    conn: ServerConn
    #: When the request entered the client pipeline (profiling only).
    t_queued: float = 0.0


@dataclass(slots=True)
class _MgetJob:
    """A batched multi-get for one server connection."""

    reqs: List[MemcachedReq]
    conn: ServerConn
    t_queued: float = 0.0


class MemcachedClient:
    """A libmemcached-style client bound to one fabric node."""

    def __init__(self, sim: Simulator, name: str = "client0",
                 config: Optional[ClientConfig] = None,
                 backend: Optional[BackendDatabase] = None,
                 obs: Optional[Observability] = None,
                 origin: int = 0,
                 routers: Optional[RouterTable] = None):
        self.sim = sim
        self.name = name
        self.config = config or ClientConfig()
        self.backend = backend
        self.obs = obs or NULL_OBS
        #: This client's node id — the final HLC tiebreak, so two
        #: clients stamping at the same instant still totally order.
        self.origin = origin
        if self.config.hlc:
            from repro.consensus.hlc import HybridLogicalClock
            self._hlc = HybridLogicalClock(sim, origin)
        else:
            self._hlc = None
        #: Latest consensus-committed membership view observed (see
        #: :meth:`apply_view`); epoch 0 = no view yet (static ring).
        self._view_epoch = 0
        #: Server indices the current view excludes, or None when the
        #: view includes everyone (keeps the no-ejection fast path).
        self._view_excludes: Optional[frozenset] = None
        #: Causal request profiler (NULL_PROFILER unless enabled).
        self._profiler = self.obs.profiler
        self._conns: List[ServerConn] = []
        #: Where routers come from: the cluster's table, shared by all
        #: of its clients, or this client's own when built standalone.
        self._routers = routers or RouterTable()
        #: The router for the current ring (``None``: look it up again).
        self._router = None
        #: Hash-ring size the router is built for. Decoupled from the
        #: connection count: an elastically added server is wired (conn
        #: appended) before the epoch-bumped view announces the larger
        #: ring, so routing must not grow early. 0 = follow the conns.
        self._ring_size = 0
        self._engine_queue: Mailbox = Mailbox(sim)
        self._outstanding: Dict[int, MemcachedReq] = {}
        if self.config.write_mode not in ("sync", "async"):
            raise ValueError(
                f"write_mode must be 'sync' or 'async', "
                f"got {self.config.write_mode!r}")
        self._replication = max(1, self.config.replication_factor)
        self._sync_writes = self.config.write_mode == "sync"
        #: Sync-mode replica copies awaiting ack (parent req_id -> subs).
        self._replica_subs: Dict[int, List[MemcachedReq]] = {}
        #: In-flight replica propagations per server index (the lag gauge).
        self._replica_outstanding: Dict[int, int] = {}
        #: Free list of recycled :class:`_EngineJob` instances.
        self._job_pool: List[_EngineJob] = []
        #: True once any connection was ever ejected; while False the
        #: router takes a straight-line path with no health scans.
        self._had_ejections = False
        #: Opt-in consistency-history hook (see ``repro.consistency``):
        #: an object with ``on_issue(client, ReqResult, parent=-1)`` and
        #: ``on_complete(client, ReqResult, user=True, parent=-1)``.
        #: ``None`` (the default) keeps recording entirely off the hot
        #: path. Both hooks consume only ``req.result()`` snapshots.
        self.recorder = None
        #: Background backend fetches driven by ``test()`` on a MISS
        #: (req_id -> the fetch :class:`~repro.sim.events.Process`).
        self._miss_fetches: Dict[int, object] = {}
        #: Registered-buffer pool (active when model_registration).
        self.buffer_pool = BufferPool()
        self._next_req_id = 0
        self._started = False
        # metrics
        self.records: List[OpRecord] = []
        self.total_blocked = 0.0
        self.t_first_issue: Optional[float] = None
        self.t_last_complete: float = 0.0
        # live metrics (no-ops when observability is disabled)
        reg = self.obs.registry
        labels = dict(client=name)
        self._metrics_on = reg.enabled
        self._m_issued = reg.counter("client_ops_issued", **labels)
        self._m_completed = reg.counter("client_ops_completed", **labels)
        self._m_blocked = reg.counter("client_blocked_seconds", **labels)
        reg.gauge("client_window",
                  fn=lambda: len(self._outstanding), **labels)
        # fault-tolerance counters (zero on a healthy cluster)
        self._m_timeouts = reg.counter("client_timeouts", **labels)
        self._m_retries = reg.counter("client_retries", **labels)
        self._m_ejections = reg.counter("client_ejections", **labels)
        self._m_failovers = reg.counter("client_failovers", **labels)
        self._m_server_down = reg.counter("client_server_down", **labels)
        # replication counters (zero at R=1)
        self._m_replica_reads = reg.counter("client_replica_reads", **labels)
        self._m_replica_writes = reg.counter("replica_propagations", **labels)
        self._op_spans: Dict[int, object] = {}
        #: Every one-sided connection's poller: one bound method shared by
        #: all of them, not one per connection.
        self._poller = self._on_buffer_ack

    # -- wiring ------------------------------------------------------------

    def add_server(self, endpoint: Endpoint,
                   server: Optional[MemcachedServer] = None) -> None:
        conn = ServerConn(len(self._conns), endpoint, server,
                          one_sided=endpoint.supports_one_sided,
                          early_ack=(server is not None
                                     and server.config.early_ack))
        self._conns.append(conn)
        self._router = None  # looked up again on next use
        if self._started:
            # Elastically added mid-run: the communication engine is
            # already up, so this connection's responses are taken now.
            self._listen(conn)
        self.obs.registry.gauge(
            "client_server_health",
            fn=lambda c=conn: 1.0 if self._conn_alive(c) else 0.0,
            client=self.name, server=str(conn.index))
        if self._replication > 1:
            self.obs.registry.gauge(
                "client_replica_lag",
                fn=lambda c=conn: float(
                    self._replica_outstanding.get(c.index, 0)),
                client=self.name, server=str(conn.index))

    def _conn_alive(self, conn: ServerConn) -> bool:
        """Client-side view only; never peeks at true server state."""
        if conn.healthy:
            return True
        return (conn.ejected_until is not None
                and self.sim.now >= conn.ejected_until)

    def _restore_expired_ejections(self) -> None:
        for conn in self._conns:
            if (not conn.healthy and conn.ejected_until is not None
                    and self.sim.now >= conn.ejected_until):
                # Probe window: the server is routable again; a fresh
                # timeout streak re-ejects it.
                conn.healthy = True
                conn.consecutive_timeouts = 0
                conn.ejected_until = None

    def apply_view(self, epoch: int, alive, ring_size: int = 0) -> None:
        """Observe a committed membership/topology view.

        Called by the :class:`~repro.consensus.RaftGroup` publication
        bus (after its notify delay) or by the cluster's direct epoch
        publish on an elastic topology change. Monotonic on ``epoch``:
        stale republications — e.g. from a just-elected leader
        re-announcing — are ignored. A view that excludes servers
        overrides the static ring the way ejection does, but from
        *committed* knowledge rather than per-client timeout guessing.
        A ``ring_size`` larger than the current ring is the atomic
        cutover of an elastic scale-up: routing switches to the router
        of the grown ring, flipping ownership in one step."""
        if epoch <= self._view_epoch:
            return
        self._view_epoch = epoch
        if ring_size and ring_size != (self._ring_size or len(self._conns)):
            self._ring_size = ring_size
            self._router = None
        excluded = frozenset(range(len(self._conns))) - frozenset(alive)
        self._view_excludes = excluded or None

    @property
    def view_epoch(self) -> int:
        """Epoch of the latest membership view observed (0 = none)."""
        return self._view_epoch

    def _ring_router(self):
        """The router of the ring this client routes over, from
        :attr:`_routers` — shared with every client of the cluster and
        with its preload and migrations."""
        router = self._router
        if router is None:
            router = self._router = self._routers.get(
                self.config.router, self._ring_size or len(self._conns))
        return router

    def _route(self, key: bytes) -> Optional[ServerConn]:
        """Pick the connection for a key, routing around ejected servers
        (dead-server rehash) and servers the committed membership view
        excludes. Returns None when no server is routable.

        Every path starts from the router's memo of the key's ring
        position, which is all the healthy-cluster fast path needs."""
        conns = self._conns
        if not conns:
            raise RuntimeError(f"{self.name}: no servers configured")
        router = self._ring_router()
        if not self._had_ejections and self._view_excludes is None:
            # Healthy-cluster fast path: no ejection has ever happened,
            # so the per-op health scans cannot change anything.
            return conns[router.server_for(key)]
        self._restore_expired_ejections()
        excludes = self._view_excludes
        # Only the ring's slots: a server wired in ahead of the view that
        # grows the ring must not count as routable.
        ring = conns[:router.num_servers]
        if all(c.healthy for c in conns):
            if excludes is None:
                return conns[router.server_for(key)]
            alive = {c.index for c in ring} - excludes
        else:
            alive = {c.index for c in ring if c.healthy}
            if excludes is not None:
                alive -= excludes
        if not alive:
            return None
        return conns[router.server_for(key, alive)]

    def _replica_conns(self, key: bytes) -> List[ServerConn]:
        """Preference-ordered replica connections for ``key`` (primary
        first), skipping ejected and view-excluded servers. Empty when
        none are routable."""
        router = self._ring_router()
        self._restore_expired_ejections()
        ring = self._conns[:router.num_servers]
        alive = None
        if not all(c.healthy for c in self._conns):
            alive = {c.index for c in ring if c.healthy}
        excludes = self._view_excludes
        if excludes is not None:
            if alive is None:
                alive = {c.index for c in ring}
            alive -= excludes
        if alive is not None and not alive:
            return []
        n = min(self._replication, len(self._conns))
        return [self._conns[i] for i in router.replicas_for(key, n, alive)]

    def _note_replica_read(self, key: bytes, conn: ServerConn) -> None:
        """Count a GET served by a non-primary member of the key's
        replica set — read failover landing on a copy of the data."""
        if conn.index == self._router.server_for(key):
            return
        n = min(self._replication, len(self._conns))
        if conn.index in self._router.replicas_for(key, n):
            self._m_replica_reads.inc()

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        if self._ring_size == 0:
            self._ring_size = len(self._conns)
        self.sim.spawn(self._engine(), name=f"{self.name}-engine")
        for conn in self._conns:
            self._listen(conn)

    # -- public blocking API -------------------------------------------------
    #
    # One request lifecycle: issue -> (buffer-safe) -> complete -> finish.
    # A blocking call is ``_issue`` plus the ``_finish`` tail that ``wait``
    # runs; the non-blocking calls return somewhere in between.

    def set(self, key: bytes, value_length: int, flags: int = 0,
            expiration: float = 0.0):
        """Blocking ``memcached_set``. Generator; returns the request."""
        req = yield from self._issue("set", "set", key, value_length,
                                     flags, expiration)
        yield from self._finish(req)
        return req

    def add(self, key: bytes, value_length: int, flags: int = 0,
            expiration: float = 0.0):
        """``memcached_add``: store only if the key is absent."""
        return (yield from self._store_if("add", key, value_length,
                                          flags, expiration))

    def replace(self, key: bytes, value_length: int, flags: int = 0,
                expiration: float = 0.0):
        """``memcached_replace``: store only if the key exists."""
        return (yield from self._store_if("replace", key, value_length,
                                          flags, expiration))

    def cas(self, key: bytes, value_length: int, cas_token: int,
            flags: int = 0, expiration: float = 0.0):
        """``memcached_cas``: store only if the item's CAS token matches
        the one observed by this client's last get of the key."""
        return (yield from self._store_if("cas", key, value_length,
                                          flags, expiration, cas_token))

    def _store_if(self, mode: str, key: bytes, value_length: int,
                  flags: int, expiration: float, cas_token: int = 0):
        """The conditional stores: a SET whose header names the
        precondition (the API is called what the mode is)."""
        req = yield from self._issue("set", mode, key, value_length, flags,
                                     expiration, mode=mode,
                                     cas_token=cas_token)
        yield from self._finish(req)
        return req

    def get(self, key: bytes):
        """Blocking ``memcached_get``. Generator; returns the request.

        On a miss (in-memory designs under eviction) the client fetches
        from the backend database — paying the miss penalty — and
        repopulates the cache, as web-scale deployments do.
        """
        req = yield from self._issue("get", "get", key, 0, 0, 0.0)
        yield from self._finish(req)
        return req

    def mget(self, keys: Sequence[bytes]):
        """``memcached_mget``: batched multi-key Get (blocking overall).

        Keys are grouped per server; each server receives ONE batched
        request and streams one response per key, so the round trips of
        a key sequence collapse into one per server. Generator; returns
        the per-key requests in input order.
        """
        self._ensure_started()
        t0 = self.sim.now
        yield self.sim.timeout(self.config.api_overhead)
        reqs: List[MemcachedReq] = []
        down: List[MemcachedReq] = []
        batches: Dict[int, _MgetJob] = {}
        for key in keys:
            conn = self._route(key)
            req = MemcachedReq(self.sim, self._next_req_id, "get", key,
                               0, "mget")
            self._next_req_id += 1
            req.t_issue = t0
            if self._profiler.enabled:
                req.trace_id = self._profiler.maybe_start("get", "mget",
                                                          t_issue=t0)
            self._op_begin(req)
            reqs.append(req)
            if conn is None:  # every server ejected: fail fast
                down.append(req)
                continue
            req.server_index = conn.index
            if self._replication > 1:
                self._note_replica_read(key, conn)
            batch = batches.setdefault(conn.index,
                                       _MgetJob([], conn, t_queued=t0))
            batch.reqs.append(req)
        for batch in batches.values():
            self._engine_queue.put(batch)
        self._account_many(reqs, self.sim.now - t0)
        for req in reqs:
            req.t_api_return = self.sim.now
        for req in down:
            self._fail_server_down(req)
        # Blocking fetch loop (like memcached_fetch after mget).
        for req in reqs:
            yield from self._finish(req)
        return reqs

    def _account_many(self, reqs: Sequence[MemcachedReq], dt: float) -> None:
        for req in reqs:
            req.blocked_time += dt
        self.total_blocked += dt
        self._m_blocked.inc(dt)

    def stats(self, server_index: int = 0):
        """memcached ``stats``: fetch one server's counter snapshot.

        Generator; returns a dict of counters.
        """
        self._ensure_started()
        conn = self._conns[server_index]
        req = MemcachedReq(self.sim, self._next_req_id, "stats", b"",
                           0, "stats")
        self._next_req_id += 1
        req.t_issue = self.sim.now
        req.server_index = conn.index
        self._op_begin(req, history=False)
        t0 = self.sim.now
        yield self.sim.timeout(self.config.api_overhead)
        self._engine_queue.put(self._job_new(req, conn, 0.0))
        # stats targets one explicit server: no failover, no retry.
        yield self._bounded(req.complete, self.config.request_timeout)
        if not req.complete.triggered:
            self._note_timeout(req)
            self._fail_server_down(req)
        self._op_end(req)
        self._account_block(req, self.sim.now - t0)
        req.recorded = True  # not a data op; never record
        if req.response is None:
            return {}
        return dict(req.response.stats_payload or {})

    def delete(self, key: bytes):
        """Blocking delete (completeness; not profiled by the paper).

        With replication the delete fans out to every replica like a
        write does (``sync`` mode holds the ack for the replica
        removals) — otherwise read failover would resurrect deleted
        keys from an untouched copy."""
        req = yield from self._issue("delete", "delete", key, 0, 0, 0.0)
        yield from self._finish(req)
        return req

    def touch(self, key: bytes, expiration: float):
        """``memcached_touch``: refresh an item's TTL without a refetch."""
        req = yield from self._issue("touch", "touch", key, 0, 0, expiration)
        yield from self._finish(req)
        return req

    def incr(self, key: bytes, delta: int = 1,
             initial: Optional[int] = None, expiration: float = 0.0):
        """``memcached_increment``: server-side add of ``delta``.

        An absent key answers NOT_FOUND unless ``initial`` is given
        (auto-create — the meta protocol's N flag — installing
        ``expiration``); a non-counter value answers NOT_NUMERIC. On
        success ``req.result().counter_value`` holds the new value. With
        replication the arithmetic fans out to every replica like a SET
        (each replica applies the same delta, drawing its own token).
        """
        req = yield from self._issue("incr", "incr", key, 0, 0, expiration,
                                     delta=delta, initial=initial)
        yield from self._finish(req)
        return req

    def decr(self, key: bytes, delta: int = 1,
             initial: Optional[int] = None, expiration: float = 0.0):
        """``memcached_decrement``: like :meth:`incr`, saturating at 0."""
        req = yield from self._issue("decr", "decr", key, 0, 0, expiration,
                                     delta=delta, initial=initial)
        yield from self._finish(req)
        return req

    def gat(self, key: bytes, expiration: float):
        """``memcached_gat``: get-and-touch in one round trip. Serves
        the value like ``get`` and refreshes the deadline like ``touch``
        (primary only — like touch, recency state is per-server). A miss
        does NOT trigger the backend fetch: gat is a cache-maintenance
        read, not a demand read."""
        req = yield from self._issue("gat", "gat", key, 0, 0, expiration)
        yield from self._finish(req)
        return req

    def gets(self, key: bytes):
        """``memcached_gets``: a read whose result carries the CAS token
        for a later :meth:`cas`. Every GET response in this protocol
        already ships the token; ``gets`` exists so call sites can spell
        the intent, exactly like libmemcached's behavior-gated variant."""
        return (yield from self.get(key))

    def flush_all(self, delay: float = 0.0):
        """``memcached_flush_all``: invalidate every item on every
        server, ``delay`` seconds in the future (epoch-stamped; chunk
        reclaim is lazy plus each server's expiry sweeper). Fans out to
        all connections; bounded waits, no retries (like ``stats``,
        flush targets explicit servers — rerouting is meaningless).
        Generator; returns the per-server requests."""
        self._ensure_started()
        t0 = self.sim.now
        yield self.sim.timeout(self.config.api_overhead)
        reqs: List[MemcachedReq] = []
        for conn in self._conns:
            req = MemcachedReq(self.sim, self._next_req_id, "flush", b"",
                               0, "flush")
            self._next_req_id += 1
            req.t_issue = t0
            req.expiration = delay
            req.server_index = conn.index
            self._op_begin(req)
            self._engine_queue.put(self._job_new(req, conn, t0))
            reqs.append(req)
        self._account_many(reqs, self.sim.now - t0)
        for req in reqs:
            yield from self._await_replica(req)
            self._finalize(req)
        return reqs

    # -- public non-blocking API (Section IV) ----------------------------------

    def iset(self, key: bytes, value_length: int, flags: int = 0,
             expiration: float = 0.0):
        """``memcached_iset``: purely non-blocking Set.

        Returns right after the request is queued on the communication
        engine. The key/value buffers must NOT be reused until a
        successful ``wait``/``test``.
        """
        self._require_nonblocking("iset")
        req = yield from self._issue("set", "iset", key, value_length,
                                     flags, expiration)
        return req

    def iget(self, key: bytes):
        """``memcached_iget``: purely non-blocking Get."""
        self._require_nonblocking("iget")
        req = yield from self._issue("get", "iget", key, 0, 0, 0.0)
        return req

    def bset(self, key: bytes, value_length: int, flags: int = 0,
             expiration: float = 0.0):
        """``memcached_bset``: non-blocking Set with buffer-reuse guarantee.

        Returns once the value has left the client's buffer (which may
        require waiting for a server receive-buffer credit — the cost
        the paper observes for write-heavy workloads in Figure 7a).
        """
        self._require_nonblocking("bset")
        req = yield from self._issue("set", "bset", key, value_length,
                                     flags, expiration)
        yield from self._await_buffer_safe(req)
        return req

    def bget(self, key: bytes):
        """``memcached_bget``: non-blocking Get with key-buffer reuse."""
        self._require_nonblocking("bget")
        req = yield from self._issue("get", "bget", key, 0, 0, 0.0)
        yield from self._await_buffer_safe(req)
        return req

    def _await_buffer_safe(self, req: MemcachedReq):
        """Hold a b-variant's caller until its buffers are reusable. A
        dead early-ack server never sends its BufferAck, so the wait is
        bounded: the caller must be able to reach wait()'s recovery."""
        t0 = self.sim.now
        yield self._bounded(req.buffer_safe, self.config.request_timeout)
        self._account_block(req, self.sim.now - t0)

    def wait(self, req: MemcachedReq, timeout: Optional[float] = None):
        """``memcached_wait``: block until the operation completes.

        With ``timeout`` (seconds), gives up waiting after that long and
        returns the request still pending (``req.done`` False) — the
        operation itself continues in the background and a later wait
        can pick it up, like libmemcached's poll timeout.
        """
        if timeout is not None and not req.complete.triggered:
            t0 = self.sim.now
            yield self._bounded(req.complete, timeout)
            self._account_block(req, self.sim.now - t0)
            if not req.complete.triggered:
                return req  # timed out; op still in flight
        yield from self._finish(req)
        return req

    def _finish(self, req: MemcachedReq, record: bool = True):
        """The completion tail of every operation, blocking or waited on:
        drive it to completion (through timeout/retry/failover recovery
        when ``request_timeout`` is set), hold for sync replica acks,
        handle a GET miss, finalize. ``record=False`` is the miss path's
        repopulating set, which is not a user-visible operation.

        A replica propagation copy (drained via quiesce) gets the bounded
        ``_await_replica`` wait instead: no retries — the data lives on
        the other replicas and resync repairs this one."""
        if req.api == "replica":
            yield from self._await_replica(req)
            return
        if self.config.request_timeout is not None:
            yield from self._recover(req)
        elif not req.complete.processed:
            # No fault handling: a silent server blocks the caller forever.
            # Inline: once per operation, a generator frame is measurable.
            sim = self.sim
            t0 = sim._now
            yield req.complete
            self._account_block(req, sim._now - t0)
        if self._replica_subs:
            yield from self._await_replica_acks(req)
        if req.op == "get" and self.backend is not None:
            yield from self._handle_miss(req)
        self._finalize(req, record)

    def test(self, req: MemcachedReq) -> bool:
        """``memcached_test``: non-blocking completion poll.

        Plain function (no simulated time): mirrors the real API, which
        only inspects the request's completion flag. A completed GET
        miss starts its backend fetch + cache repopulation in the
        background (the poll itself stays zero-time); ``test`` keeps
        returning False until that fetch finishes, then finalizes the
        operation like ``wait`` would.
        """
        if not req.done:
            return False
        if req.recorded:
            return True
        if (req.op == "get" and self.backend is not None
                and req.status in (MISS, SERVER_DOWN)
                and req.miss_penalty is None):
            done = self._miss_fetches.get(req.req_id)
            if done is None:
                done = self.sim.event()
                self._miss_fetches[req.req_id] = done
                self.sim.spawn(self._background_miss(req, done),
                               name=f"{self.name}-miss{req.req_id}")
            if not done.triggered:
                return False  # backend fetch still in flight
        self._finalize(req)
        return True

    def wait_any(self, reqs: Sequence[MemcachedReq],
                 timeout: Optional[float] = None):
        """Wait until any one of ``reqs`` completes; returns
        ``(first_done_req, remaining)``.

        The returned request went through the same recovery / replica-ack
        / miss-finalization tail as ``wait``. Already-completed requests
        win immediately, first in input order. With ``timeout`` and
        nothing completing in time, returns ``(None, reqs)`` — every
        operation continues in the background, like a timed-out ``wait``.

        When ``request_timeout`` is configured and nothing completes
        within it, recovery (retry/failover/ejection) is driven for the
        oldest request, exactly as a plain ``wait`` on it would — so a
        dead server cannot wedge the caller.
        """
        reqs = list(reqs)
        if not reqs:
            return None, []
        deadline = None if timeout is None else self.sim.now + timeout
        while True:
            for i, req in enumerate(reqs):
                if req.complete.triggered:
                    yield from self._finish(req)
                    return req, reqs[:i] + reqs[i + 1:]
            bound = self.config.request_timeout
            if deadline is not None:
                left = deadline - self.sim.now
                if left <= 0:
                    return None, reqs  # timed out; ops still in flight
                bound = left if bound is None else min(bound, left)
            waits = [r.complete for r in reqs]
            if bound is not None:
                waits.append(self.sim.timeout(bound))
            t0 = self.sim.now
            yield self.sim.any_of(waits)
            # Blocked on the whole set: no one request's blocked_time.
            self._account_many((), self.sim.now - t0)
            if any(r.complete.triggered for r in reqs):
                continue
            if deadline is not None and self.sim.now >= deadline:
                return None, reqs
            # request_timeout elapsed with nothing done: fall back to
            # wait() semantics on the oldest request (bounded recovery).
            req = reqs[0]
            yield from self._finish(req)
            return req, reqs[1:]

    def wait_all(self, reqs: Sequence[MemcachedReq],
                 timeout: Optional[float] = None):
        """Wait on many requests (the bursty-I/O pattern of Listing 2).

        ``timeout`` is one budget shared across the whole batch: once it
        is spent, the remaining requests get a non-blocking sweep (done
        ones are finalized, pending ones are left in flight for a later
        ``wait``/``test``). ``None`` preserves the unbounded behaviour.
        """
        deadline = None if timeout is None else self.sim.now + timeout
        for req in reqs:
            yield from self.wait(req, None if deadline is None
                                 else max(0.0, deadline - self.sim.now))
        return list(reqs)

    def quiesce(self):
        """Wait until every outstanding request of this client completed
        (including background miss fetches started by ``test``)."""
        while self._outstanding or self._miss_fetches:
            if self._outstanding:
                yield from self.wait(next(iter(self._outstanding.values())))
            else:
                yield next(iter(self._miss_fetches.values()))

    # -- issue path --------------------------------------------------------------

    def _require_nonblocking(self, api: str) -> None:
        if not self.config.nonblocking_allowed:
            raise UnsupportedOperation(
                f"{api}: this design provides blocking Set/Get APIs only")

    def _issue(self, op: str, api: str, key: bytes, value_length: int,
               flags: int, expiration: float, mode: str = "set",
               cas_token: int = 0, delta: int = 0,
               initial: Optional[int] = None):
        self._ensure_started()
        sim = self.sim
        req_id = self._next_req_id
        req = MemcachedReq(sim, req_id, op, key, value_length, api,
                           flags, mode, cas_token, delta, initial)
        self._next_req_id = req_id + 1
        t0 = req.t_issue = sim._now
        req.expiration = expiration
        # One HLC stamp per user write, drawn at issue time so the
        # recorded history sees it even if the op never completes.
        # Every replica copy shares it, so all copies of this write
        # merge identically everywhere. Counters are excluded: incr/
        # decr are commutative server-side arithmetic, not
        # last-writer-wins values.
        if self._hlc is not None and op in ("set", "delete"):
            req.hlc = self._hlc.stamp()
        if self._profiler.enabled:
            req.trace_id = self._profiler.maybe_start(op, api)
        conn = self._route(key)
        self._op_begin(req)
        yield sim.timeout(self.config.api_overhead)
        now = req.t_api_return = sim._now
        self._account_block(req, now - t0)
        if conn is None:  # every server ejected: fail fast
            self._fail_server_down(req)
            return req
        req.server_index = conn.index
        self._engine_queue.put(self._job_new(req, conn, t0))
        if self._replication > 1:
            if op in ("set", "delete", "incr", "decr"):
                subs = self._fan_out(req, conn)
                if self._sync_writes and subs:
                    self._replica_subs[req.req_id] = subs
            elif op == "get":
                self._note_replica_read(req.key, conn)
        return req

    def _bounded(self, ev, bound: Optional[float]):
        """The event to yield to wait on ``ev`` for at most ``bound``
        seconds; ``None`` waits as long as it takes, on ``ev`` itself.
        The caller tells a timeout by ``ev`` not having triggered."""
        if bound is None:
            return ev
        return self.sim.any_of([ev, self.sim.timeout(bound)])

    # -- replication (write fan-out + replica acks) -------------------------

    def _fan_out(self, req: MemcachedReq,
                 primary: ServerConn) -> List[MemcachedReq]:
        """Queue replica copies of a write on the engine.

        CAS tokens are per-server, so replica copies of a ``cas`` write
        downgrade to unconditional sets — the primary alone validates
        the token. Deletes fan out the same way (a replica removal per
        copy), and incr/decr copies re-apply the same arithmetic on each
        replica. Replica sub-requests are not user operations: they
        carry ``api="replica"``, never produce records, and always
        travel inline (no receive-buffer credits; see ``_engine_set``).
        """
        subs: List[MemcachedReq] = []
        rmode = "set" if req.mode == "cas" else req.mode
        for conn in self._replica_conns(req.key):
            if conn.index == primary.index:
                continue
            sub = MemcachedReq(self.sim, self._next_req_id, req.op, req.key,
                               req.value_length, "replica", req.flags,
                               rmode, 0, req.delta, req.initial)
            self._next_req_id += 1
            sub.t_issue = self.sim.now
            sub.expiration = req.expiration
            # Replica copies share the parent's trace: their spans show
            # up under the ``replica.`` prefix of the parent's tree.
            sub.trace_id = req.trace_id
            sub.server_index = conn.index
            sub.hlc = req.hlc  # replica copies share the parent's stamp
            if self.recorder is not None:
                self.recorder.on_issue(self.name, sub.result(),
                                       parent=req.req_id)
            self._outstanding[sub.req_id] = sub
            self._replica_outstanding[conn.index] = (
                self._replica_outstanding.get(conn.index, 0) + 1)
            sub.complete.callbacks.append(
                lambda _ev, s=sub, c=conn, p=req.req_id:
                    self._replica_done(s, c, p))
            self._engine_queue.put(self._job_new(sub, conn, self.sim.now))
            self._m_replica_writes.inc()
            subs.append(sub)
        return subs

    def _replica_done(self, sub: MemcachedReq, conn: ServerConn,
                      parent: int = -1) -> None:
        """Completion hook for one replica copy (ack or give-up)."""
        self._replica_outstanding[conn.index] = max(
            0, self._replica_outstanding.get(conn.index, 0) - 1)
        sub.recorded = True
        if self.recorder is not None:
            self.recorder.on_complete(self.name, sub.result(), user=False,
                                      parent=parent)
        if sub.status != SERVER_DOWN:
            conn.consecutive_timeouts = 0

    def _await_replica(self, req: MemcachedReq, account: bool = True):
        """Bounded completion wait for one replica copy: no retries, no
        rerouting. A copy that times out completes as ``SERVER_DOWN``
        (the timeout still feeds the target's ejection streak); the
        write stays durable on the surviving replicas and anti-entropy
        resync repairs this one when the server rejoins."""
        if req.complete.triggered:
            return
        t0 = self.sim.now
        yield self._bounded(req.complete, self.config.request_timeout)
        if account:
            self._account_block(req, self.sim.now - t0)
        if not req.complete.triggered:
            self._note_timeout(req)
            self._fail_server_down(req, count=False)

    def _await_replica_acks(self, req: MemcachedReq):
        """Sync write mode: hold the caller until every replica copy of
        ``req`` acked (or gave up — a dead replica must not wedge the
        write)."""
        subs = self._replica_subs.pop(req.req_id, None)
        if not subs:
            return
        t0 = self.sim.now
        for sub in subs:
            yield from self._await_replica(sub, account=False)
        self._account_block(req, self.sim.now - t0)
        if req.trace_id is not None:
            self._profiler.record(req.trace_id, "replica_wait",
                                  t0, self.sim.now)

    # -- failure detection & recovery --------------------------------------

    def _recover(self, req: MemcachedReq):
        """Drive ``req`` to completion, detecting silent server failures
        (``_finish`` calls this only with ``request_timeout`` set).

        Each wait is bounded: a timeout counts against the target server
        (ejection after ``failure_threshold`` consecutive timeouts), the
        operation is reissued after exponential backoff — rerouted
        around ejected servers — and after ``max_retries`` reissues it
        completes with status ``SERVER_DOWN``. Retries give Sets
        at-least-once semantics: a server that processed the request but
        died before responding applies it again on reissue.
        """
        timeout = self.config.request_timeout
        attempt = 0
        while not req.complete.triggered:
            t0 = self.sim.now
            yield self._bounded(req.complete, timeout)
            self._account_block(req, self.sim.now - t0)
            if req.complete.triggered:
                break
            self._note_timeout(req)
            if attempt >= self.config.max_retries:
                self._fail_server_down(req)
                return
            attempt += 1
            backoff = (self.config.retry_backoff
                       * self.config.backoff_multiplier ** (attempt - 1))
            t0 = self.sim.now
            yield self._bounded(req.complete, backoff)
            self._account_block(req, self.sim.now - t0)
            if req.trace_id is not None:
                self._profiler.record(req.trace_id, "backoff",
                                      t0, self.sim.now)
            if req.complete.triggered:
                break
            if not self._reissue(req):
                self._fail_server_down(req)
                return
            self._m_retries.inc()
        self._note_success(req)

    def _note_timeout(self, req: MemcachedReq) -> None:
        """A completion timeout elapsed against ``req``'s target server."""
        self._m_timeouts.inc()
        if not 0 <= req.server_index < len(self._conns):
            return
        conn = self._conns[req.server_index]
        conn.consecutive_timeouts += 1
        threshold = self.config.failure_threshold
        if threshold and conn.healthy and \
                conn.consecutive_timeouts >= threshold:
            conn.healthy = False
            self._had_ejections = True
            conn.ejected_until = (
                None if self.config.eject_duration is None
                else self.sim.now + self.config.eject_duration)
            self._m_ejections.inc()

    def _note_success(self, req: MemcachedReq) -> None:
        if req.status == SERVER_DOWN:  # completed by giving up, not by a
            return                     # response: no health signal
        if 0 <= req.server_index < len(self._conns):
            self._conns[req.server_index].consecutive_timeouts = 0

    def _reissue(self, req: MemcachedReq) -> bool:
        """Re-queue ``req`` on the engine, rerouting around ejected
        servers. Returns False when no live server remains.

        With replication, a retried GET prefers the next replica over
        hammering the server that just timed out — read failover kicks
        in on the first retry, before the ejection threshold trips."""
        conn = None
        if self._replication > 1 and req.op == "get":
            for c in self._replica_conns(req.key):
                if c.index != req.server_index:
                    conn = c
                    break
        if conn is None:
            conn = self._route(req.key)
        if conn is None:
            return False
        if conn.index != req.server_index:
            self._m_failovers.inc()
            if self._replication > 1 and req.op == "get":
                self._note_replica_read(req.key, conn)
        req.server_index = conn.index
        self._engine_queue.put(self._job_new(req, conn, self.sim.now))
        return True

    def _fail_server_down(self, req: MemcachedReq,
                          count: bool = True) -> None:
        """Give up on ``req``: complete it with status ``SERVER_DOWN``
        (``count=False``: a replica copy or a broadcast, not a user op).

        Any late response is dropped by the receiver (the request is no
        longer outstanding)."""
        self._outstanding.pop(req.req_id, None)
        req.status = SERVER_DOWN
        req.t_complete = self.sim.now
        if count:
            self._m_server_down.inc()
        if not req.complete.triggered:
            req.complete.succeed(None)
        req.mark_buffer_safe()

    # -- miss path ---------------------------------------------------------

    def _background_miss(self, req: MemcachedReq, done):
        """Backend fetch driven by ``test()`` — runs off the caller's
        critical path, so it never counts as blocked time."""
        try:
            yield from self._miss_fetch(req, account=False)
        finally:
            self._miss_fetches.pop(req.req_id, None)
            done.succeed()
            self._finalize(req)

    def _handle_miss(self, req: MemcachedReq):
        """Backend fetch + cache repopulation after a failed GET
        (``_finish`` calls this for a GET on a client with a backend)."""
        inflight = self._miss_fetches.get(req.req_id)
        if inflight is not None:
            # test() already started the fetch in the background; join it.
            t0 = self.sim.now
            yield inflight
            self._account_block(req, self.sim.now - t0)
            return
        yield from self._miss_fetch(req, account=True)

    def _miss_fetch(self, req: MemcachedReq, account: bool):
        """The fetch itself. A MISS repopulates the cache; a SERVER_DOWN
        get pays only the backend fetch (the fallback read web tiers
        take when a shard is unreachable) — its key still routes to the
        dead server, so repopulating would be wasted work.
        """
        if req.status not in (MISS, SERVER_DOWN):
            return
        if req.miss_penalty is not None:
            return  # already fetched (a penalty of 0.0 included)
        t0 = self.sim.now
        value_length = yield from self.backend.fetch(req.key)
        req.miss_penalty = self.sim.now - t0
        if account:
            self._account_block(req, self.sim.now - t0)
        if value_length > 0 and req.status == MISS:
            # Repopulate so future lookups hit (not recorded as a user op).
            t1 = self.sim.now
            fill = yield from self._issue("set", "set", req.key,
                                          value_length, 0, 0.0)
            yield from self._finish(fill, record=False)
            if account:
                self._account_block(req, self.sim.now - t1)
        req.value_length = value_length
        req.t_complete = self.sim.now
        if req.trace_id is not None:
            self._profiler.record(req.trace_id, "backend", t0, self.sim.now)

    def _account_block(self, req: MemcachedReq, dt: float) -> None:
        req.blocked_time += dt
        self.total_blocked += dt
        if self._metrics_on:
            self._m_blocked.inc(dt)

    def _op_begin(self, req: MemcachedReq, history: bool = True) -> None:
        """Issue-time bookkeeping of one user-visible request: history,
        the outstanding table, live metrics, the trace span."""
        if history:
            if self.recorder is not None:
                self.recorder.on_issue(self.name, req.result())
            if self.t_first_issue is None:
                self.t_first_issue = req.t_issue
        self._outstanding[req.req_id] = req
        if self._metrics_on:
            self._m_issued.inc()
        if self.obs.tracer.enabled:
            self._op_spans[req.req_id] = self.obs.tracer.begin(
                f"{req.api}:{req.op}", tid=self.name, pid="client",
                cat="op", async_=True, req_id=req.req_id)

    def _op_end(self, req: MemcachedReq) -> None:
        if self._metrics_on:
            self._m_completed.inc()
        span = self._op_spans.pop(req.req_id, None)
        if span is not None:
            span.end(status=req.status)

    def _job_new(self, req: MemcachedReq, conn: ServerConn,
                 t_queued: float) -> _EngineJob:
        """An :class:`_EngineJob` from the free list (or a fresh one)."""
        pool = self._job_pool
        if pool:
            job = pool.pop()
            job.req = req
            job.conn = conn
            job.t_queued = t_queued
            return job
        return _EngineJob(req, conn, t_queued)

    def _finalize(self, req: MemcachedReq, record: bool = True) -> None:
        """Record a completed user-visible operation (idempotent)."""
        if req.recorded:
            return
        req.recorded = True
        if req.api == "replica":
            return  # propagation copies are not user-visible operations
        if req.trace_id is not None:
            self._profiler.finish(req.trace_id, req.result())
        if self.recorder is not None:
            self.recorder.on_complete(self.name, req.result(), user=record)
        self._op_end(req)
        if record and self.config.record_ops and req.status is not None:
            self.records.append(OpRecord.from_req(req))
        self.t_last_complete = max(self.t_last_complete, req.t_complete)

    # -- engine -------------------------------------------------------------------

    def _engine(self):
        # Everything read per job is hoisted once: the loop runs for
        # every operation the client ever issues and each attribute walk
        # in here is a per-op cost.
        sim = self.sim
        timeout = sim.timeout
        queue_get = self._engine_queue.get
        engine_cpu = self.config.engine_cpu
        model_registration = self.config.model_registration
        profiler = self._profiler
        pool = self._job_pool
        while True:
            job = yield queue_get()
            if engine_cpu:
                yield timeout(engine_cpu)
            if isinstance(job, _MgetJob):
                if profiler.enabled:
                    now = sim.now
                    for r in job.reqs:
                        if r.trace_id is not None:
                            profiler.record(r.trace_id, "client_queue",
                                            job.t_queued, now)
                self._engine_mget(job.reqs, job.conn)
                continue
            req, conn = job.req, job.conn
            if req.trace_id is not None:
                profiler.record(
                    req.trace_id, self._pstage(req) + "client_queue",
                    job.t_queued, sim.now)
            # The job carried its payload to this unpack; recycle it.
            job.req = job.conn = None  # type: ignore[assignment]
            pool.append(job)
            if model_registration and req.op in ("set", "get"):
                cost = self._acquire_buffer(req)
                if cost > 0:
                    yield timeout(cost)
            # ``msg`` is the message whose going on the wire frees the
            # operation's buffers (None: a BufferAck does instead).
            op = req.op
            if op == "set":
                msg = yield from self._engine_set(req, conn)
                if msg is not None:
                    req.reuse_point(msg)
                continue
            # Everything else is one header-only message.
            if op == "get":
                header = GetRequest(req_id=req.req_id, op="get", key=req.key,
                                    trace_id=req.trace_id)
            elif op == "delete":
                header = DeleteRequest(req_id=req.req_id, op="delete",
                                       key=req.key,
                                       replica=req.api == "replica",
                                       hlc=req.hlc, trace_id=req.trace_id)
            elif op == "touch":
                header = TouchRequest(req_id=req.req_id, op="touch",
                                      key=req.key,
                                      expiration=req.expiration,
                                      trace_id=req.trace_id)
            elif op in ("incr", "decr"):
                header = CounterRequest(req_id=req.req_id, op=op,
                                        key=req.key, delta=req.delta,
                                        initial=req.initial,
                                        expiration=req.expiration,
                                        direction=op,
                                        replica=req.api == "replica",
                                        trace_id=req.trace_id)
            elif op == "gat":
                header = GatRequest(req_id=req.req_id, op="gat",
                                    key=req.key,
                                    expiration=req.expiration,
                                    trace_id=req.trace_id)
            elif op == "flush":
                # The expiration slot carries flush_all's delay.
                header = FlushRequest(req_id=req.req_id, op="flush",
                                      key=b"", delay=req.expiration)
            else:
                header = StatsRequest(req_id=req.req_id, op="stats", key=b"")
            msg = conn.endpoint.send(header, header.header_bytes)
            if req.trace_id is not None:
                self._profile_msg(req, msg)
            req.reuse_point(msg)

    def _engine_set(self, req: MemcachedReq, conn: ServerConn):
        ep = conn.endpoint
        replica = req.api == "replica"
        if not replica and conn.one_sided and conn.server is not None:
            header = SetRequest(req_id=req.req_id, op="set", key=req.key,
                                value_length=req.value_length,
                                flags=req.flags, expiration=req.expiration,
                                mode=req.mode, cas_token=req.cas_send,
                                inline_value=False, hlc=req.hlc,
                                trace_id=req.trace_id)
            msg_h = ep.send(header, header.header_bytes)
            if req.trace_id is not None:
                self._profile_msg(req, msg_h)
            # Flow control: a server receive buffer must be free before
            # the engine may RDMA-write the value.
            credit = conn.server.credits.request()
            t_credit = self.sim._now
            yield credit
            if req.trace_id is not None:
                self._profiler.record(req.trace_id,
                                      self._pstage(req) + "credit",
                                      t_credit, self.sim._now)
            arrival = ValueArrival(req_id=req.req_id,
                                   nbytes=req.value_length, credit=credit)
            msg_v = ep.send(arrival, req.value_length, one_sided=True)
            if req.trace_id is not None:
                self._profile_msg(req, msg_v)
            # Existing runtime: no buffered-ack arrives; the buffer is
            # reusable once the value has left the client NIC.
            # Optimized runtime: the buffer is safe once the server's
            # BufferAck (Section V-B1) lands (see _on_buffer_ack).
            return None if conn.early_ack else msg_v
        else:
            # Stream transport — and every replica propagation: header
            # and value in one message, so the apply path never competes
            # for the receive-buffer credits user traffic flows through.
            header = SetRequest(req_id=req.req_id, op="set", key=req.key,
                                value_length=req.value_length,
                                flags=req.flags, expiration=req.expiration,
                                mode=req.mode, cas_token=req.cas_send,
                                inline_value=True, replica=replica,
                                hlc=req.hlc, trace_id=req.trace_id)
            msg = ep.send(header, header.header_bytes + req.value_length)
            if req.trace_id is not None:
                self._profile_msg(req, msg)
            return msg

    def _engine_mget(self, reqs: List[MemcachedReq],
                     conn: ServerConn) -> None:
        header = MultiGetRequest(
            req_id=reqs[0].req_id, op="mget", key=reqs[0].key,
            entries=tuple((r.req_id, r.key) for r in reqs))
        if self._profiler.enabled:
            header.traces = tuple(r.trace_id for r in reqs)
        msg = conn.endpoint.send(header, header.header_bytes)
        for r in reqs:
            self._profile_msg(r, msg)
            r.reuse_point(msg)

    def _acquire_buffer(self, req: MemcachedReq) -> float:
        """Draw a registered buffer; schedule its return at the
        operation's buffer-reuse point (Section IV semantics)."""
        nbytes = max(req.value_length + len(req.key), 1)
        cost = self.buffer_pool.acquire(nbytes)
        # b-variants guarantee early reuse; everything else pins the
        # buffer until the operation completes (wait/test).
        release_on = (req.buffer_safe if req.api in ("bset", "bget")
                      else req.complete)

        def _release(_ev):
            self.buffer_pool.release(nbytes)

        if release_on.processed:
            _release(None)
        else:
            release_on.callbacks.append(_release)
        return cost

    @staticmethod
    def _pstage(req: MemcachedReq) -> str:
        """Span-name prefix: replica fan-out work is tagged ``replica.``
        so it nests in the folded tree without double-counting in the
        flat attribution (the ``replica_wait`` barrier covers it)."""
        return "replica." if req.api == "replica" else ""

    def _profile_msg(self, req: MemcachedReq, msg) -> None:
        """Record nic/wire stages for one outbound message of ``req``."""
        if req.trace_id is not None:
            profile_message(self._profiler, req.trace_id,
                            self._profiler.clock, msg, self._pstage(req))

    # -- response path ----------------------------------------------------------------

    def _listen(self, conn: ServerConn) -> None:
        """Start taking ``conn``'s responses, each with a call and no
        process: as the endpoint's receiver on a one-sided connection (no
        receive CPU, so each is handled as it is delivered, and the
        server's BufferAcks are polled writes), behind the socket's
        kernel receive on a stream connection (serial CPU per message,
        a clock the transport keeps)."""
        receiver = partial(self._on_response, conn)
        endpoint = conn.endpoint
        if conn.one_sided:
            endpoint.receiver = receiver
            endpoint.poller = self._poller
        else:
            endpoint.listen(receiver)

    def _on_buffer_ack(self, ack: BufferAck, msg) -> None:
        """The server sent a BufferAck: the request's buffers are free
        once it lands, which costs a timer only if someone waits."""
        req = self._outstanding.get(ack.req_id)
        if req is not None:
            req.ack_point(msg)

    def _on_response(self, conn: ServerConn, delivery) -> None:
        response: Response = delivery.payload
        req = self._outstanding.pop(response.req_id, None)
        if req is None:
            # Late response for an op already declared SERVER_DOWN,
            # or the duplicate answer of a retried request.
            return
        if req.complete.triggered:  # pragma: no cover - defensive
            return
        req.response = response
        req.status = response.status
        # Attribute the completion to the server that answered:
        # after a failover reissue, the response of the *first*
        # attempt can still arrive, and history/consistency checks
        # need the server that actually served the op.
        req.server_index = conn.index
        now = self.sim._now
        if req.trace_id is not None and req.api != "replica":
            # Fig 2's server_response ends here; a replica copy shares
            # the trace of the write it copies.
            self._profiler.mark_response(req.trace_id)
        if response.op in ("get", "gat") and response.status == HIT:
            req.value_length = response.value_length
        elif response.op in ("incr", "decr") and \
                response.status == "STORED":
            req.value_length = response.value_length
        req.counter_value = response.counter_value
        req.cas_token = response.cas_token
        req.t_complete = now
        # Whoever polls the request in wait() sees the completion now.
        req.complete._hand_off(response)

    # -- metrics --------------------------------------------------------------

    def reset_metrics(self) -> None:
        self.records.clear()
        self.total_blocked = 0.0
        self.t_first_issue = None
        self.t_last_complete = 0.0

    @property
    def outstanding_count(self) -> int:
        return len(self._outstanding)

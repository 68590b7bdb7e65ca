"""The Memcached server runtime.

Worker processes (memcached's worker threads) pull assembled requests
from a queue and drive the slab manager. Two runtime designs exist,
selected by :class:`ServerConfig`:

* **default** (H-RDMA-Def lineage): a SET's receive-buffer credit is
  held until the request is fully processed — slab allocation and any
  synchronous SSD flush included — so a busy server backpressures the
  clients' communication engines;
* **optimized** (Section V-B1, ``early_ack=True``): the server copies
  the value into internal staging and releases the credit immediately,
  then performs the expensive hybrid memory/SSD work, and only then
  communicates the operation's completion — the non-blocking client can
  meanwhile reuse its buffers and issue further requests.

A worker sleeps one timer per uninterrupted run of CPU stages (Fig 2):
its pickup timer covers receive, parse and the handler's first stage.
A profiled request records one causal-profile span per stage; Fig 2's
server stages are its dotted spans (``index.slab_alloc`` ...), folded
by :func:`repro.core.metrics.stage_breakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional

from repro.net.transport import Endpoint
from repro.obs.api import NULL_OBS, Observability
from repro.obs.profile import profile_message
from repro.obs.tracer import NULL_SPAN
from repro.server.hybrid import HybridSlabManager
from repro.server.protocol import (
    DELETED,
    HIT,
    MISS,
    NOT_FOUND,
    OK,
    RESPONSE_HEADER_BYTES,
    STORED,
    TOUCHED,
    BufferAck,
    CounterRequest,
    DeleteRequest,
    FlushRequest,
    GatRequest,
    GetRequest,
    MultiGetRequest,
    Request,
    Response,
    SetRequest,
    StatsRequest,
    TouchRequest,
    ValueArrival,
)
from repro.sim import Mailbox, PriorityStore, Resource, Simulator, Timeout
from repro.sim.errors import SimulationError
from repro.storage.device import BlockDevice
from repro.storage.params import DeviceParams, PageCacheParams
from repro.units import GB, KB, MB, US

#: Queue sentinel that makes a worker re-check liveness (crash teardown).
_POISON = object()
#: Rendezvous sentinel: the awaited SET value was dropped by a fault.
_DROPPED = object()


@dataclass(frozen=True)
class ServerCosts:
    """CPU service times of the server's fast-path operations."""

    parse: float = 0.5 * US
    hash_lookup: float = 0.4 * US
    lru_update: float = 0.25 * US
    slab_alloc_cpu: float = 0.5 * US
    response_prep: float = 0.4 * US
    #: memcpy bandwidth for staging/chunk copies (bytes/s).
    memcpy_bandwidth: float = 8e9


@dataclass(frozen=True)
class ServerConfig:
    """Everything that distinguishes one server design from another."""

    mem_limit: int = 1 * GB
    page_size: int = 1 * MB
    #: SSD backing; None gives a pure in-memory server.
    ssd: Optional[DeviceParams] = None
    ssd_limit: int = 4 * GB
    #: "direct" (existing design) or "adaptive" (mmap/cached by class).
    io_policy: str = "direct"
    adaptive_cutoff: int = 32 * KB
    worker_threads: int = 8
    #: RDMA receive-buffer credits for in-flight SET values.
    recv_credits: int = 16
    #: Optimized runtime: release the credit after staging the value.
    early_ack: bool = False
    #: Asynchronous SSD I/O (the paper's Sec-VII future work): slab
    #: flushes stage in bounded buffers and write back in the background.
    async_flush: bool = False
    flush_buffers: int = 4
    #: Slab automover (memcached's rebalancer) for shifting workloads.
    automove: bool = False
    automove_interval: float = 0.05
    #: Schedule GETs ahead of SETs in the worker queue (an extension
    #: beyond the paper: read requests skip ahead of writes whose slab
    #: flushes would otherwise head-of-line-block them).
    get_priority: bool = False
    #: Active TTL reclaim (memcached's LRU crawler): a background
    #: sweeper scans ``expiry_budget`` items per tick and frees expired
    #: chunks without waiting for the next lookup.
    active_expiry: bool = True
    expiry_interval: float = 0.005
    expiry_budget: int = 128
    pagecache: PageCacheParams = field(default_factory=PageCacheParams)
    costs: ServerCosts = field(default_factory=ServerCosts)
    min_chunk: int = 96
    growth_factor: float = 1.25

    @property
    def hybrid(self) -> bool:
        return self.ssd is not None


@dataclass
class ServerStats:
    """Operation counters and worker busy time."""

    sets: int = 0
    gets: int = 0
    deletes: int = 0
    get_hits: int = 0
    get_misses: int = 0
    #: incr/decr arithmetic commands served (user-visible).
    counters: int = 0
    gats: int = 0
    flushes: int = 0
    #: Replica-propagation writes applied (not user-visible SETs).
    replica_applies: int = 0
    busy_time: float = 0.0


class MemcachedServer:
    """One Memcached server instance bound to a fabric node."""

    def __init__(self, sim: Simulator, config: ServerConfig,
                 name: str = "server0",
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.config = config
        self.name = name
        self.obs = obs or NULL_OBS
        self.device = (BlockDevice(sim, config.ssd, name=f"{name}-ssd",
                                   obs=self.obs)
                       if config.ssd is not None else None)
        self.manager = HybridSlabManager(
            sim,
            mem_limit=config.mem_limit,
            device=self.device,
            ssd_limit=config.ssd_limit,
            page_size=config.page_size,
            io_policy=config.io_policy,
            adaptive_cutoff=config.adaptive_cutoff,
            pagecache_params=config.pagecache,
            min_chunk=config.min_chunk,
            growth_factor=config.growth_factor,
            async_flush=config.async_flush,
            flush_buffers=config.flush_buffers,
            flush_memcpy_bandwidth=config.costs.memcpy_bandwidth,
            automove=config.automove,
            automove_interval=config.automove_interval,
            active_expiry=config.active_expiry,
            expiry_interval=config.expiry_interval,
            expiry_budget=config.expiry_budget,
            obs=self.obs,
            owner=name,
        )
        self.stats = ServerStats()
        #: Ring index of this server in its cluster (set by the cluster
        #: wiring); -1 when the server runs standalone.
        self.index = -1
        #: Migration-window state (:class:`repro.core.migration
        #: .HandoffState`) while this server donates or receives a shard
        #: handoff; None outside any window — the request hot path pays
        #: exactly one attribute test for elasticity.
        self.handoff = None
        # Neither queue allocates a per-put event: the receiver never
        # blocks on (or looks at) a put, so there is nobody to wait on it.
        self._queue = PriorityStore(sim) if config.get_priority else Mailbox(sim)
        self.credits = Resource(sim, capacity=config.recv_credits)
        self._value_events: Dict[int, object] = {}
        # Per request type: its handler (passed the parse instant) and the
        # CPU stage it starts with, slept on the pickup timer (see _worker).
        lookup = config.costs.hash_lookup
        self._handlers = {
            SetRequest: (self._handle_set, None),
            GetRequest: (self._handle_get, lookup),
            MultiGetRequest: (self._handle_mget, None),
            DeleteRequest: (self._handle_delete, lookup),
            TouchRequest: (self._handle_touch, lookup),
            CounterRequest: (self._handle_counter, lookup),
            GatRequest: (self._handle_gat, lookup),
            FlushRequest: (self._handle_flush, lookup),
            StatsRequest: (self._handle_stats, config.costs.response_prep),
        }
        self._started = False
        self._busy_workers = 0
        #: Fail-stop state: a crashed server drops everything until
        #: :meth:`restart`.
        self.alive = True
        #: Network partition state: an unreachable server neither
        #: receives nor delivers messages until :meth:`heal`.
        self.reachable = True
        self.crashes = 0
        self.restarts = 0
        #: Bumped on every crash; workers from older generations exit.
        self._generation = 0
        # live metrics (no-ops when observability is disabled)
        reg = self.obs.registry
        labels = dict(server=name)
        self._m_sets = reg.counter("cmd_set", **labels)
        self._m_gets = reg.counter("cmd_get", **labels)
        self._m_hits = reg.counter("get_hits", **labels)
        self._m_misses = reg.counter("get_misses", **labels)
        self._m_deletes = reg.counter("cmd_delete", **labels)
        self._m_credit_hold = reg.histogram("credit_hold_seconds", **labels)
        reg.gauge("server_queue_depth", fn=lambda: len(self._queue), **labels)
        reg.gauge("workers_busy", fn=lambda: self._busy_workers, **labels)
        reg.gauge("server_credits_in_use",
                  fn=lambda: self.credits.in_use, **labels)
        reg.gauge("server_alive",
                  fn=lambda: 1.0 if (self.alive and self.reachable) else 0.0,
                  **labels)
        self._m_crashes = reg.counter("server_crashes", **labels)
        self._m_dropped_rx = reg.counter("server_rx_dropped", **labels)
        self._m_replica_applies = reg.counter("replica_propagations",
                                              **labels)
        #: Cached registry-enabled flag: the NULL counters' .inc() calls
        #: are real method calls, measurable on the per-request path.
        self._metrics_on = reg.enabled

    # -- wiring -----------------------------------------------------------

    def attach(self, endpoint: Endpoint) -> None:
        """Serve one client connection: its frames are handled as they
        are delivered, by :meth:`_receive`."""
        endpoint.receiver = partial(self._receive, endpoint)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        gen = self._generation
        for i in range(self.config.worker_threads):
            self.sim.spawn(self._worker(i, gen),
                           name=f"{self.name}-worker{i}.g{gen}")

    def queue_depth(self) -> int:
        """Requests waiting for a worker (the autoscaler's load signal,
        same series the ``server_queue_depth`` gauge samples)."""
        return len(self._queue)

    # -- migration handoff (elastic scaling) ----------------------------------

    def _pull_on_miss(self, request) -> None:
        """Migration window: materialize a single-key request's item
        from its old owner before it is served here, unless the key was
        already written here. Replica applies and key-less broadcasts
        (flush/stats) stay local; an mget pulls per entry in
        :meth:`_handle_mget`."""
        state = self.handoff
        if not state.pulling or getattr(request, "replica", False) \
                or isinstance(request, MultiGetRequest):
            return
        key = request.key
        if key and key not in state.written:
            state.migration.maybe_pull(self, key)

    def _note_write(self, key: bytes) -> None:
        """Hook run after every local mutation applies: keeps a
        migration window coherent (a write to a key owned elsewhere is
        re-pushed to its new owner). Callers guard on ``handoff``."""
        self.handoff.note_write(self, key)

    # -- fault injection (fail-stop crash / network partition) ----------------

    def crash(self) -> None:
        """Fail-stop: drop queued and in-flight work, stop the worker
        pool, and make sure nothing can block on this server's resources.

        The NIC keeps draining deliveries (the receivers stay installed) but
        every message is discarded, so clients observe silence — their
        completion timeouts, not errors, detect the failure.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self._m_crashes.inc()
        self._generation += 1
        self._queue.clear()
        self._purge_value_waits()
        # Wake parked workers so they exit and the pool tears down.
        for _ in range(self.config.worker_threads):
            self._queue.put(_POISON)
        self._open_credits()
        self._started = False

    def restart(self, wipe: bool = False) -> None:
        """Bring a crashed server back with a fresh worker pool.

        With ``wipe`` the cache restarts cold (stock memcached loses
        DRAM contents); without it the contents survive, modeling a
        persistent-memory-backed store (cf. Choi et al., PAPERS.md).
        """
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        self._generation += 1
        self.credits = Resource(self.sim, capacity=self.config.recv_credits)
        self._value_events.clear()
        if wipe:
            self.manager.wipe()
        self.start()

    def partition(self) -> None:
        """Enter a full network partition (link blackhole): requests,
        values, and responses are all dropped until :meth:`heal`."""
        if not self.reachable:
            return
        self.reachable = False
        self._purge_value_waits()
        self._open_credits()

    def heal(self) -> None:
        """Leave the partition; dropped SET values are purged so workers
        parked on their rendezvous abort and return to the queue."""
        if self.reachable:
            return
        self.reachable = True
        self._purge_value_waits()
        self.credits = Resource(self.sim, capacity=self.config.recv_credits)

    def _purge_value_waits(self) -> None:
        """Abort every pending SET-value rendezvous with a sentinel."""
        for ev in list(self._value_events.values()):
            if not ev.triggered:
                ev.succeed(_DROPPED)
        self._value_events.clear()

    def _open_credits(self) -> None:
        """Replace the credit pool with an effectively unbounded one and
        grant everything queued: no client communication engine may sit
        parked forever on a dead/unreachable server's flow control (its
        values are dropped on arrival anyway)."""
        old = self.credits
        self.credits = Resource(self.sim, capacity=1 << 30)
        old.grant_all_waiting()

    def _release_credit(self, credit) -> None:
        """Return a SET's receive-buffer credit (None: already returned,
        or an inline value that never took one), observing how long it
        was held."""
        if credit is None:
            return
        if credit.granted_at is not None and self._metrics_on:
            self._m_credit_hold.observe(self.sim._now - credit.granted_at)
        try:
            credit.resource.release(credit)
        except SimulationError:  # pragma: no cover - defensive
            # The pool was torn down by a crash while this worker held
            # the credit; there is nothing left to release into.
            pass

    # -- receive path ---------------------------------------------------------

    def _receive(self, endpoint: Endpoint, delivery) -> None:
        """The connection's receiver: runs inside the frame's delivery,
        at the instant it arrives (the worker polling the receive buffer
        picks the request up; no process sits in between)."""
        if not (self.alive and self.reachable):
            # Crashed or partitioned: the frame vanishes. No CPU is
            # charged — nobody is listening.
            self._m_dropped_rx.inc()
            return
        payload = delivery.payload
        if isinstance(payload, ValueArrival):
            # req_ids are unique per client connection only; key the
            # rendezvous by (connection, req_id).
            key = (id(endpoint), payload.req_id)
            ev = self._value_events.setdefault(key, self.sim.event())
            # A parked worker takes the value inside this call; one still
            # parsing the header finds the event processed.
            (ev._hand_off if ev.callbacks else ev.succeed)(payload)
        elif isinstance(payload, Request):
            prof = self.obs.profiler
            if prof.enabled:
                for tid, px in self._trace_targets(payload):
                    prof.open_stage(tid, px + "server_queue")
            self._enqueue(delivery, endpoint)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected payload {payload!r}")

    def _enqueue(self, delivery, endpoint: Endpoint) -> None:
        """Hand a request frame to the worker pool; a parked worker
        picks it up inside this call."""
        if self.config.get_priority:
            # Reads skip ahead of writes (0 beats 1); gat rides the
            # read lane — its TTL refresh never flushes.
            rank = 0 if delivery.payload.op in ("get", "mget", "gat") else 1
            self._queue.put((delivery, endpoint), priority=rank)
        else:
            self._queue.put((delivery, endpoint))

    @staticmethod
    def _trace_targets(request: Request):
        """``(trace_id, stage_prefix)`` pairs of a request's sampled
        traces — one per entry for a batched mget, the ``replica.``
        prefix for replica-propagation applies."""
        if isinstance(request, MultiGetRequest):
            return [(tid, "") for tid in request.traces if tid is not None]
        if request.trace_id is None:
            return []
        px = "replica." if getattr(request, "replica", False) else ""
        return [(request.trace_id, px)]

    def _await_value(self, endpoint: Endpoint, req_id: int):
        key = (id(endpoint), req_id)
        ev = self._value_events.setdefault(key, self.sim.event())
        arrival = yield ev
        # pop, not del: a fault purge may have already dropped the key.
        self._value_events.pop(key, None)
        return arrival

    # -- worker threads ---------------------------------------------------------

    def _worker(self, wid: int = 0, gen: int = 0):
        m_busy = self.obs.registry.counter(
            "worker_busy_seconds", server=self.name, worker=str(wid))
        self.obs.registry.gauge(
            "worker_busy_fraction",
            fn=lambda: m_busy.value / self.sim.now if self.sim.now > 0 else 0.0,
            server=self.name, worker=str(wid))
        tid = f"{self.name}-w{wid}"
        # Loop-invariant bindings: tracer and costs are fixed for a
        # worker generation, and this loop runs once per request.
        tracer = self.obs.tracer
        costs = self.config.costs
        parse_cost = costs.parse
        metrics_on = self._metrics_on
        sim = self.sim
        queue_get = self._queue.get
        prof = self.obs.profiler
        prof_on = prof.enabled
        tracer_on = tracer.enabled
        while True:
            got = yield queue_get()
            if got is _POISON:
                if gen != self._generation or not self.alive:
                    return  # crash teardown: this worker's pool is gone
                continue
            if gen != self._generation:
                # Superseded by a restart: hand the work to the new pool.
                self._queue.put(got)
                return
            delivery, endpoint = got
            start = sim._now
            self._busy_workers += 1
            request = delivery.payload
            targets = ()
            if prof_on:
                targets = self._trace_targets(request)
                for ptid, px in targets:
                    prof.close_stage(ptid, px + "server_queue")
            if tracer_on:
                ids = {"req_id": request.req_id}
                if request.trace_id is not None:
                    ids["trace_id"] = request.trace_id
                span = tracer.begin(request.op, tid=tid, pid="server",
                                    cat="request", **ids)
            else:
                span = NULL_SPAN
            # Receive CPU, parse and the handler's first CPU stage run
            # back to back: one timer, due when the last sleep would
            # have ended (same float sums) and posted where it would
            # have started, so it keeps that sleep's same-instant order.
            parsed = (start + delivery.recv_cpu) + parse_cost
            kind = type(request)
            handler, lead = self._handlers[kind]
            if lead is not None:
                yield Timeout.at(sim, parsed + lead, posted=parsed)
            elif kind is SetRequest and request.inline_value:
                # The value came with the header: copy, then slab alloc.
                copied = parsed + request.value_length / costs.memcpy_bandwidth
                yield Timeout.at(sim, copied + costs.slab_alloc_cpu, posted=copied)
            else:  # an RDMA value is on its way; an MGET looks up per entry
                yield Timeout.at(sim, parsed)
            for ptid, px in targets:
                prof.record(ptid, px + "server_cpu", start, parsed)
            if self.handoff is not None:
                self._pull_on_miss(request)
            yield from handler(request, endpoint, parsed)
            if span is not NULL_SPAN:
                span.end()
            self._busy_workers -= 1
            busy = sim._now - start
            self.stats.busy_time += busy
            if metrics_on:
                m_busy.inc(busy)

    # -- SET -----------------------------------------------------------------

    def _handle_set(self, request: SetRequest, endpoint: Endpoint, t_copy: float):
        sim = self.sim
        costs = self.config.costs
        prof = self.obs.profiler
        ptid = request.trace_id if prof.enabled else None
        px = "replica." if request.replica else ""
        credit = None
        if not request.inline_value:
            arrival = yield from self._await_value(endpoint, request.req_id)
            if arrival is _DROPPED or not self.alive:
                # The value was lost to a crash/partition while we waited
                # (or the server died under us): abandon the SET. The
                # client's completion timeout handles the rest.
                return
            credit = arrival.credit
            t_copy = sim._now
        # Copy the value out of the receive buffer (staging on the
        # optimized server, directly toward the chunk otherwise), then
        # allocate its chunk: one timer unless the early ack comes
        # between the two (an inline value slept both on the pickup).
        t0 = t_copy + request.value_length / costs.memcpy_bandwidth
        early_ack = credit is not None and self.config.early_ack
        if not request.inline_value:
            yield (Timeout.at(sim, t0) if early_ack else
                   Timeout.at(sim, t0 + costs.slab_alloc_cpu, posted=t0))
        if ptid is not None:
            prof.record(ptid, px + "ram", t_copy, t0)
        if early_ack:
            # Optimized runtime: the receive buffer is free *now*; the
            # client engine's next value transfer can proceed while we do
            # the expensive slab work below. Notify the client that its
            # buffers are reusable (what bset blocks on — Section V-B1):
            # an RDMA write the client polls for, so it wakes nobody.
            self._release_credit(credit)
            credit = None
            if self.reachable:
                ack = BufferAck(req_id=request.req_id)
                endpoint.write_polled(ack, ack.header_bytes)
            yield sim.timeout(costs.slab_alloc_cpu)
        if ptid is not None:
            prof.record(ptid, px + "index.slab_alloc", t0, sim._now)
        t_store = sim._now
        item, info = yield from self.manager.store(
            request.key, request.value_length, request.flags,
            request.expiration, mode=request.mode,
            cas_token=request.cas_token, hlc=request.hlc)
        if ptid is not None:
            # Store time beyond the alloc CPU is flush/eviction I/O wait.
            prof.record(ptid, px + "ssd.slab_alloc", t_store, sim._now)
        if self.handoff is not None and info.status == STORED:
            self._note_write(request.key)

        t0 = sim._now
        yield sim.timeout(costs.lru_update)
        if ptid is not None:
            prof.record(ptid, px + "index.cache_update", t0, sim._now)

        self._release_credit(credit)
        if request.replica:
            # Replica-apply path: same slab work, separate accounting —
            # user-visible SET counters stay comparable across R values.
            self.stats.replica_applies += 1
            if self._metrics_on:
                self._m_replica_applies.inc()
        else:
            self.stats.sets += 1
            if self._metrics_on:
                self._m_sets.inc()
        yield from self._respond(endpoint, request, info.status, 0,
                                 cas_token=item.cas if item else 0)

    # -- GET ------------------------------------------------------------------

    def _handle_get(self, request: GetRequest, endpoint: Endpoint, t0: float):
        sim = self.sim
        prof = self.obs.profiler
        ptid = request.trace_id if prof.enabled else None
        if ptid is not None:
            prof.record(ptid, "index.cache_check_load", t0, sim._now)
        item = self.manager.lookup(request.key)
        if item is not None:
            t_load = sim._now
            was_ssd = item.on_ssd
            yield from self.manager.load_value(item, trace=ptid)
            if ptid is not None:
                # A RAM hit serves at memcpy speed; the SSD path's device
                # time is nested under this span as ``ssd.io``.
                prof.record(ptid, ("ssd" if was_ssd else "ram")
                            + ".cache_check_load", t_load, sim._now)

        self.stats.gets += 1
        if self._metrics_on:
            self._m_gets.inc()
        if item is None:
            self.stats.get_misses += 1
            if self._metrics_on:
                self._m_misses.inc()
            yield from self._respond(endpoint, request, MISS, 0)
            return

        t0 = sim._now
        yield sim.timeout(self.config.costs.lru_update)
        self.manager.touch(item)
        if ptid is not None:
            prof.record(ptid, "index.cache_update", t0, sim._now)

        self.stats.get_hits += 1
        if self._metrics_on:
            self._m_hits.inc()
        yield from self._respond(endpoint, request, HIT, item.value_length,
                                 cas_token=item.cas)

    # -- MGET -----------------------------------------------------------------

    def _handle_mget(self, request: MultiGetRequest, endpoint: Endpoint, _parsed: float):
        """memcached_mget: one GET per requested key, each with its own
        lookup sleep and its own response (and, in a migration window,
        pulled on its own)."""
        traces = request.traces if self.obs.profiler.enabled else ()
        for i, (req_id, key) in enumerate(request.entries):
            sub = GetRequest(req_id=req_id, op="get", key=key,
                             trace_id=traces[i] if i < len(traces) else None)
            if self.handoff is not None:
                self._pull_on_miss(sub)
            t0 = self.sim._now
            yield self.sim.timeout(self.config.costs.hash_lookup)
            yield from self._handle_get(sub, endpoint, t0)

    # -- DELETE --------------------------------------------------------------

    def _handle_delete(self, request: DeleteRequest, endpoint: Endpoint, t0: float):
        if request.trace_id is not None and self.obs.profiler.enabled:
            px = "replica." if request.replica else ""
            self.obs.profiler.record(request.trace_id, px + "index",
                                     t0, self.sim.now)
        found = self.manager.delete(request.key, hlc=request.hlc)
        if found and self.handoff is not None:
            self._note_write(request.key)
        if request.replica:
            self.stats.replica_applies += 1
            self._m_replica_applies.inc()
        else:
            self.stats.deletes += 1
            self._m_deletes.inc()
        yield from self._respond(endpoint, request,
                                 DELETED if found else NOT_FOUND, 0)

    # -- TOUCH ---------------------------------------------------------------

    def _handle_touch(self, request: TouchRequest, endpoint: Endpoint, _parsed: float):
        """memcached's ``touch``: bump expiration + LRU, no data moved."""
        costs = self.config.costs
        item = self.manager.lookup(request.key)
        if item is None:
            yield from self._respond(endpoint, request, NOT_FOUND, 0)
            return
        # A past deadline removes the item *now* (memcached semantics);
        # blindly assigning it would leave a dead item holding its slab
        # chunk and MRU slot until the next lookup happened to find it.
        if self.manager.set_expiration(item, request.expiration):
            yield self.sim.timeout(costs.lru_update)
            self.manager.touch(item)
        if self.handoff is not None:
            # Deadline changed (or a past deadline removed the item):
            # either way the migrated copy must reflect it.
            self._note_write(request.key)
        yield from self._respond(endpoint, request, TOUCHED, 0)

    # -- INCR / DECR ---------------------------------------------------------

    def _handle_counter(self, request: CounterRequest, endpoint: Endpoint, _parsed: float):
        """incr/decr: in-place arithmetic, optional auto-create."""
        costs = self.config.costs
        status, value, item = yield from self.manager.counter_op(
            request.key, request.delta, request.direction,
            initial=request.initial, expiration=request.expiration)
        if self.handoff is not None and status == STORED:
            self._note_write(request.key)
        cas_token = 0
        value_length = 0
        if status == STORED and item is not None:
            cas_token = item.cas
            value_length = item.value_length
            yield self.sim.timeout(costs.lru_update)
            self.manager.touch(item)
        if request.replica:
            self.stats.replica_applies += 1
            self._m_replica_applies.inc()
        else:
            self.stats.counters += 1
        yield from self._respond(endpoint, request, status, value_length,
                                 cas_token=cas_token, counter_value=value)

    # -- GAT -----------------------------------------------------------------

    def _handle_gat(self, request: GatRequest, endpoint: Endpoint, _parsed: float):
        """gat: a GET that also refreshes the item's deadline. A past
        deadline serves the value one last time, then removes the item."""
        costs = self.config.costs
        item = self.manager.lookup(request.key)
        if item is not None:
            yield from self.manager.load_value(item)
        self.stats.gats += 1
        if item is None:
            yield from self._respond(endpoint, request, MISS, 0)
            return
        value_length, cas_token = item.value_length, item.cas
        if self.manager.set_expiration(item, request.expiration):
            yield self.sim.timeout(costs.lru_update)
            self.manager.touch(item)
        if self.handoff is not None:
            self._note_write(request.key)
        yield from self._respond(endpoint, request, HIT, value_length,
                                 cas_token=cas_token)

    # -- FLUSH ---------------------------------------------------------------

    def _handle_flush(self, request: FlushRequest, endpoint: Endpoint, _parsed: float):
        """flush_all: stamp the invalidation epoch; reclaim stays lazy."""
        self.manager.flush_all(request.delay)
        self.stats.flushes += 1
        yield from self._respond(endpoint, request, OK, 0)

    # -- STATS ---------------------------------------------------------------

    def _handle_stats(self, request: StatsRequest, endpoint: Endpoint, _parsed: float):
        """memcached's ``stats``: ship a counter snapshot. Its one stage
        rode the pickup timer, so the worker's ``yield from`` gets ()."""
        if self.alive and self.reachable:
            snapshot = self.stats_snapshot()
            response = Response(req_id=request.req_id, op="stats", status="OK",
                                stats_payload=snapshot)
            # ~100 bytes per counter line, like the text protocol.
            endpoint.send(response, response.header_bytes + 100 * len(snapshot),
                          one_sided=True)
        return ()

    def stats_snapshot(self) -> Dict[str, float]:
        """The counters the ``stats`` command reports."""
        m = self.manager.stats
        snap: Dict[str, float] = {
            "cmd_set": self.stats.sets,
            "cmd_get": self.stats.gets,
            "get_hits": self.stats.get_hits,
            "get_misses": self.stats.get_misses,
            "cmd_delete": self.stats.deletes,
            "cmd_counter": self.stats.counters,
            "cmd_gat": self.stats.gats,
            "cmd_flush": self.stats.flushes,
            "expired_active": m.expired_active,
            "expired_passive": m.expired_passive,
            "replica_applies": self.stats.replica_applies,
            "curr_items": len(self.manager.table),
            "items_ram": self.manager.items_in_ram,
            "items_ssd": self.manager.items_on_ssd,
            "slab_flushes": m.flushes,
            "ssd_reads": m.ssd_reads,
            "promotions": m.promotions,
            "evictions": m.ram_evictions + m.dropped_items,
            "bytes_flushed": m.flushed_bytes,
        }
        if self.device is not None:
            snap["device_reads"] = self.device.stats.reads
            snap["device_writes"] = self.device.stats.writes
            snap["device_busy_time"] = self.device.stats.busy_time
        if self.obs.registry.enabled:
            # The live registry rides along under its fully-labelled keys
            # (``cmd_set{server="server0"}`` ...), so a ``stats`` client
            # sees the same data the observability exporters do.
            mine = []
            if self.device is not None:
                mine.append(f'device="{self.device.name}"')
            mine.append(f'server="{self.name}"')
            for key, value in self.obs.registry.flatten().items():
                if any(label in key for label in mine):
                    snap[key] = value
        return snap

    # -- response ----------------------------------------------------------------

    def _respond(self, endpoint: Endpoint, request: Request, status: str,
                 value_length: int, cas_token: int = 0,
                 counter_value: int = 0):
        if not self.alive:
            return  # crashed mid-request: the response never forms
        sim = self.sim
        prof = self.obs.profiler
        ptid = request.trace_id if prof.enabled else None
        px = ("replica." if getattr(request, "replica", False) else "")
        t_prep = sim._now
        yield sim.timeout(self.config.costs.response_prep)
        if ptid is not None:
            prof.record(ptid, px + "server_cpu.response", t_prep, sim._now)
        if not (self.alive and self.reachable):
            return  # died or partitioned during prep: response dropped
        response = Response(req_id=request.req_id, op=request.op,
                            status=status, value_length=value_length,
                            cas_token=cas_token, counter_value=counter_value)
        nbytes = RESPONSE_HEADER_BYTES + value_length
        # GET responses carry the value via an RDMA write into the
        # client's buffer (one-sided); on IPoIB this degrades to a stream
        # send, both exactly as in the respective real designs.
        msg = endpoint.send(response, nbytes, one_sided=True)
        if ptid is not None:
            profile_message(prof, ptid, prof.clock, msg, px)

    # -- experiment setup ------------------------------------------------------

    def reset_metrics(self) -> None:
        """Zero the run-scoped counters (cache contents are untouched),
        so back-to-back runs on one cluster don't bleed into each other."""
        self.stats = ServerStats()
        self.manager.reset_metrics()
        if self.device is not None:
            self.device.reset_metrics()

    def preload(self, pairs) -> int:
        """Insert ``(key, value_length[, expiration, numeric])`` tuples
        in zero simulated time."""
        n = 0
        for entry in pairs:
            self.manager.preload(*entry)
            n += 1
        return n

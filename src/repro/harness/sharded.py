"""Sharded event domains: conservative-lookahead parallel simulation.

The classic runner puts the whole cluster in one :class:`Simulator`.
This module splits it into **event domains** — one domain holding every
client, plus one domain per shard of servers — each with its own
simulator, clock, and event queue, synchronized only where the model
itself synchronizes: on the wire.

Design
------

* **Full mirror builds.** Every domain builds the *complete* cluster
  (same ``build_cluster`` call, same preload) and then *owns* a subset
  of the roles: domain 0 owns the clients, domain ``k`` owns the
  servers with ``index % shards == k - 1``. Non-owned components exist
  but are inert — clients are never driven outside domain 0, and a
  server copy that receives no traffic schedules nothing beyond its
  idle background sweeps. Identical builds guarantee identical routers,
  connection indexing, and per-server preload CAS streams in every
  domain.
* **Wire latency is the sync horizon.** Messages are the only
  cross-domain interaction, and every message takes at least ``L`` (the
  transport's one-way latency) to arrive. The coordinator therefore
  runs all domains in lock-step windows ``[t, t + L)`` where ``t`` is
  the globally earliest pending event: a message sent inside a window
  cannot be due before the window's end, so each domain can drain its
  window without observing the others (classic conservative lookahead).
* **Capture and inject.** Each owned NIC gets a
  :attr:`~repro.net.fabric.NIC.delivery_router`: instead of scheduling
  the local delivery timeout, the domain records ``(due, seq, endpoint,
  payload, nbytes)`` and schedules only the *local* ``Message.delivered``
  timing (for sender-side waiters and profiler spans). At each window
  boundary the coordinator moves captured entries to the destination
  domain, sorts them by ``(due, source rank, capture seq)``, and injects
  each as a pre-triggered event via :meth:`Simulator.post_at` whose
  callback reproduces the transport's inbox delivery.

Determinism contract
--------------------

* A sharded run is **fully deterministic**: same config, same results,
  regardless of ``shard_workers`` (the multiprocessing driver and the
  serial driver produce identical output — the injection order is fixed
  by ``(due, source rank, capture seq)``, never by wall-clock races).
* Every cross-domain message arrives at its **exact** single-simulator
  timestamp; nothing in the synchronization adds, removes, or moves
  simulated work.
* The one divergence class is *simultaneity*: when two distinct events
  fall on **exactly equal** simulated instants and at least one crossed
  a domain boundary, the single simulator orders them by global posting
  history (which event's causal chain got ahead in the global
  interleave), while the sharded run orders them by ``(due, source
  rank, capture seq)`` — deterministic, but possibly different. On
  schedules with no such equal-instant collisions the sharded run is
  **byte-identical** (records and history, timestamps included) to the
  single-simulator oracle. Identical clients all starting at t=0 are
  the main tie factory; ``RunConfig.client_stagger`` (a few
  nanoseconds) breaks that symmetry in both modes, and the equivalence
  tests in ``tests/harness/test_sharded.py`` pin byte-identity on such
  configs — faulty runs included — on both the fast-lane and legacy
  engine paths.

Why IPoIB designs only
----------------------

The RDMA designs model receive-buffer credits as a server-side
:class:`~repro.sim.Resource` that *clients* acquire synchronously (and
servers release) — zero-latency shared state between client and server,
faithful to one-sided flow-control bookkeeping but impossible to split
across domains without changing semantics. The IPoIB designs
(``IPOIB_MEM``, ``FATCACHE``) interact exclusively through
wire-latency messages, so they shard cleanly. RDMA profiles raise
:class:`ShardingUnsupported`.

Drivers
-------

* **Serial** (``shard_workers <= 1``): all domains in-process, rounds
  coordinated by plain calls. This is the reference sharded mode and
  the one the equivalence tests byte-compare.
* **Multiprocessing** (``shard_workers >= 2``): domains are distributed
  round-robin over forked workers; the parent coordinates rounds over
  pipes and only picklable wire payloads cross process boundaries. On
  a many-core host this removes the GIL from the per-domain drains; the
  protocol is one request/reply round trip per window.
"""

from __future__ import annotations

import dataclasses
import gc
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import metrics
from repro.core.cluster import Cluster, ClusterSpec, build_cluster
from repro.core.profiles import BLOCKING, NONB_B, NONB_I
from repro.faults import FaultPlan
from repro.net.ipoib import Delivery
from repro.sim import Event, SimulationError, Simulator, Timeout
from repro.workloads.generator import generate_ops, make_dataset
from repro.workloads.ycsb import CORE_WORKLOADS, generate_ycsb_ops

__all__ = ["ShardingUnsupported", "run_sharded", "run_sharded_streams"]

#: Bounded manual GC sweep cadence for the round loop (the domains'
#: ``run_window`` drains do no GC management of their own).
_GC_ROUND_MASK = (1 << 10) - 1


class ShardingUnsupported(SimulationError):
    """The configuration cannot be split into event domains."""


# -- ownership ---------------------------------------------------------------


def _owner_rank(server_index: int, shards: int) -> int:
    """Domain rank owning a server (rank 0 is the client domain)."""
    return 1 + server_index % shards


def _owned_servers(rank: int, num_servers: int, shards: int) -> List[int]:
    return [si for si in range(num_servers)
            if _owner_rank(si, shards) == rank]


def _validate(cfg) -> Tuple[ClusterSpec, int]:
    """Check a RunConfig is shardable; returns (spec, server shards)."""
    if cfg.profile.transport != "ipoib":
        raise ShardingUnsupported(
            f"profile {cfg.profile.key!r} uses RDMA transport: its "
            "receive-buffer credits are zero-latency client/server shared "
            "state and cannot be split into event domains (see "
            "repro/harness/sharded.py)")
    if cfg.sim is not None:
        raise ShardingUnsupported(
            "sharded runs build one Simulator per domain; RunConfig.sim "
            "cannot be injected")
    spec = cfg.cluster if cfg.cluster is not None \
        else ClusterSpec(**cfg.spec_overrides)
    if spec.replication_factor != 1:
        raise ShardingUnsupported(
            "replication resync reads peer server state out-of-band; "
            "sharded runs require replication_factor=1")
    if spec.replication.consensus:
        raise ShardingUnsupported(
            "the Raft membership group exchanges heartbeats between "
            "server nodes, which sharding places in separate event "
            "domains; run consensus single-simulator")
    if spec.profile:
        raise ShardingUnsupported(
            "per-request causal profiling stitches spans across client "
            "and server domains; run it single-simulator")
    topo = cfg.topology if cfg.topology is not None else spec.topology
    if cfg.scale_events or (topo.autoscale is not None
                            and topo.autoscale.enabled):
        raise ShardingUnsupported(
            "elastic scaling migrates items and forwards requests "
            "between servers out-of-band, which sharding places in "
            "separate event domains; run elastic topologies "
            "single-simulator")
    if not spec.ipoib_params.latency > 0.0:
        raise ShardingUnsupported(
            "conservative lookahead needs a positive wire latency")
    if cfg.shard_domains < 2:
        raise ShardingUnsupported(
            f"shard_domains={cfg.shard_domains}: need at least 2 "
            "(1 client domain + 1 server domain)")
    shards = min(cfg.shard_domains - 1, spec.num_servers)
    return spec, shards


# -- one event domain --------------------------------------------------------


def _deliver_local(msg, _ev=None) -> None:
    """Mark the message delivered in the *sender's* domain at wire-due
    time (profiler hooks / sender-side waiters) without dispatching the
    frame — the real delivery happens in the destination domain."""
    msg._reach_dst(msg.src.sim._now)


def _deliver_remote(ep, payload, nbytes: int, _ev=None) -> None:
    """Reproduce ``IPoIBEndpoint._on_delivery`` for an injected entry."""
    ep.inbox.put(Delivery(payload=payload, nbytes=nbytes,
                          recv_cpu=ep.params.cpu_recv, one_sided=False))


class _Domain:
    """One event domain: a full mirror cluster plus capture/inject glue.

    ``outbound`` accumulates captured cross-domain sends as
    ``(due, seq, key, payload, nbytes)`` where ``key`` is
    ``("C"|"S", client_index, server_index)`` naming the *destination*
    endpoint; the coordinator drains it every round.
    """

    def __init__(self, rank: int, cfg, spec: ClusterSpec, shards: int):
        self.rank = rank
        self.sim = Simulator()
        self.cluster = _build_domain_cluster(cfg, spec, self.sim)
        self.outbound: List[tuple] = []
        self._seq = 0
        # Endpoint registry: identical builds make (side, ci, si) a
        # cross-domain stable name for each half of each connection.
        eps: Dict[tuple, object] = {}
        key_of: Dict[int, tuple] = {}
        for ci, client in enumerate(self.cluster.clients):
            for si, conn in enumerate(client._conns):
                # The protocol endpoints wrap raw IPoIB socket ends; the
                # frames on the wire address the *raw* ends, so those
                # are what the registry names (their inbox/params are
                # shared with the wrapper).
                cli_ep = conn.endpoint._raw
                srv_ep = cli_ep.peer
                eps[("C", ci, si)] = cli_ep
                eps[("S", ci, si)] = srv_ep
                key_of[id(cli_ep)] = ("C", ci, si)
                key_of[id(srv_ep)] = ("S", ci, si)
        self._eps = eps
        self._key_of = key_of
        # Hook the NICs of owned, transmitting components. Non-owned
        # components never transmit (clients are only driven in domain
        # 0; a server copy without traffic sends nothing).
        if rank == 0:
            nics = {id(ep.nic): ep.nic for key, ep in eps.items()
                    if key[0] == "C"}
            self.owned_servers: List[int] = []
        else:
            owned = set(_owned_servers(rank, spec.num_servers, shards))
            self.owned_servers = sorted(owned)
            nics = {id(ep.nic): ep.nic for key, ep in eps.items()
                    if key[0] == "S" and key[2] in owned}
        for nic in nics.values():
            nic.delivery_router = self._capture

    def _capture(self, nic, msg) -> None:
        sim = nic.sim
        latency = nic._latency
        Timeout(sim, latency).callbacks.append(partial(_deliver_local, msg))
        frame = msg.payload
        self.outbound.append((sim._now + latency, self._seq,
                              self._key_of[id(frame.dst)],
                              frame.payload, msg.nbytes))
        self._seq += 1

    def inject(self, entries: Sequence[tuple]) -> None:
        """Post pre-sorted remote deliveries ``(due, key, payload,
        nbytes)``; the heap tie-break counter freezes their order."""
        sim = self.sim
        post_at = sim.post_at
        eps = self._eps
        for due, key, payload, nbytes in entries:
            ep = eps[key]
            ev = Event(sim)
            ev._ok = True
            ev._value = None
            ev.callbacks.append(partial(_deliver_remote, ep, payload,
                                        nbytes))
            post_at(ev, due)


def _build_domain_cluster(cfg, spec: ClusterSpec, sim: Simulator) -> Cluster:
    value_length_for = (cfg.workload.value_length_for
                        if cfg.workload is not None else None)
    cluster = build_cluster(cfg.profile, spec=spec, sim=sim,
                            value_length_for=value_length_for)
    if cfg.preload and cfg.workload is not None:
        cluster.preload(make_dataset(cfg.workload))
    return cluster


# -- serial coordinator ------------------------------------------------------


class _DomainSet:
    """All domains in one process; rounds coordinated by plain calls."""

    def __init__(self, cfg, spec: ClusterSpec, shards: int):
        self.cfg = cfg
        self.spec = spec
        self.shards = shards
        self.lookahead = spec.ipoib_params.latency
        self.domains = [_Domain(rank, cfg, spec, shards)
                        for rank in range(shards + 1)]
        self.client_domain = self.domains[0]

    @property
    def events_processed(self) -> int:
        return sum(d.sim.events_processed for d in self.domains)

    # -- one warmup or measured phase -----------------------------------

    def run_phase(self, per_client_ops, fault_plan, measured: bool = True):
        from repro.harness.runner import (
            RunResult,
            _drive_blocking,
            _drive_nonblocking,
        )

        cfg = self.cfg
        cluster = self.client_domain.cluster
        api = cfg.api or cluster.profile.api
        if api not in (BLOCKING, NONB_B, NONB_I):
            raise ValueError(f"unknown api {api!r}")
        for d in self.domains:
            d.cluster.reset_metrics()
        recorder = None
        if cfg.check_consistency and measured:
            from repro.consistency import HistoryRecorder
            recorder = HistoryRecorder().attach(cluster)
        if fault_plan is not None:
            self._arm_faults(fault_plan)
        sim = self.client_domain.sim
        drivers = []
        stagger = cfg.client_stagger
        for index, (client, ops) in enumerate(
                zip(cluster.clients, per_client_ops)):
            if api == BLOCKING:
                gen = _drive_blocking(client, ops, mget_batch=cfg.mget_batch,
                                      delay=index * stagger)
            else:
                gen = _drive_nonblocking(client, ops, api, cfg.window,
                                         delay=index * stagger)
            drivers.append(sim.spawn(gen, name=f"driver-{client.name}"))
        self.drain(sim.all_of(drivers))
        records = cluster.all_records()
        span = 0.0
        if records:
            span = (max(r.t_complete for r in records)
                    - min(r.t_issue for r in records))
        result = RunResult(profile_key=cluster.profile.key, api=api,
                           records=records, span=span,
                           obs=cluster.obs if cluster.obs.enabled else None,
                           events_processed=self.events_processed)
        result.summary = metrics.summarize(records)
        if recorder is not None:
            from repro.consistency import check_run
            result.consistency = check_run(cluster, recorder,
                                           faults=fault_plan is not None)
            result.history = recorder.events
            recorder.detach()
        return result

    def _arm_faults(self, plan) -> None:
        """Split the plan by owning domain. Event times are relative to
        injection on the target domain's clock; domain clocks drift
        apart by up to one lookahead window (plus idle lag), so times
        are re-anchored to the client domain's clock — the one that
        matches the single-simulator reference."""
        epoch = self.client_domain.sim._now
        by_rank: Dict[int, list] = {}
        for event in plan.events:
            if not 0 <= event.server < self.spec.num_servers:
                raise ValueError(
                    f"fault targets server {event.server} but the cluster "
                    f"has {self.spec.num_servers}")
            by_rank.setdefault(_owner_rank(event.server, self.shards),
                               []).append(event)
        for rank, events in by_rank.items():
            domain = self.domains[rank]
            shifted = [dataclasses.replace(
                e, at=max(0.0, epoch + e.at - domain.sim._now))
                for e in events]
            FaultPlan(shifted).inject(domain.cluster)

    # -- the conservative-lookahead round loop --------------------------

    def drain(self, done: Event) -> None:
        """Run rounds until ``done`` (an event in the client domain)
        triggers. Each round: find the globally earliest pending event,
        drain every domain up to (exclusive) that time plus the
        lookahead, then exchange the deliveries the round captured."""
        domains = self.domains
        lookahead = self.lookahead
        inf = float("inf")
        rounds = 0
        gc_paused = gc.isenabled()
        if gc_paused:
            gc.disable()
        try:
            while not done.triggered:
                gmin = inf
                for d in domains:
                    t = d.sim.peek()
                    if t < gmin:
                        gmin = t
                if gmin == inf:
                    raise SimulationError(
                        "sharded schedule drained before the drivers "
                        "finished (deadlock?)")
                horizon = gmin + lookahead
                for d in domains:
                    d.sim.run_window(horizon)
                self._exchange()
                rounds += 1
                if not rounds & _GC_ROUND_MASK and gc_paused:
                    gc.collect(1)
        finally:
            if gc_paused:
                gc.enable()

    def _exchange(self) -> None:
        pending: Dict[int, list] = {}
        shards = self.shards
        for src in self.domains:
            out = src.outbound
            if not out:
                continue
            rank = src.rank
            for due, seq, key, payload, nbytes in out:
                dst = 0 if key[0] == "C" else _owner_rank(key[2], shards)
                pending.setdefault(dst, []).append(
                    (due, rank, seq, key, payload, nbytes))
            out.clear()
        for dst, entries in pending.items():
            entries.sort(key=lambda e: (e[0], e[1], e[2]))
            self.domains[dst].inject(
                [(e[0], e[3], e[4], e[5]) for e in entries])


# -- multiprocessing driver --------------------------------------------------
#
# Domains are distributed round-robin over forked workers (rank % W).
# Pipe protocol, one request/reply per window:
#
#   parent -> worker: ("phase", measured, check, streams|None, faults)
#   worker -> parent: ("phased", {rank: peek})
#   parent -> worker: ("step", horizon, {rank: [(due, key, payload, nb)]})
#   worker -> parent: ("stepped", {rank: peek}, [(due, src_rank, seq, key,
#                      payload, nb)], done_flag)
#   parent -> worker: ("collect", faults_present)   # rank-0 owner only
#   worker -> parent: ("collected", {records, span, history, report,
#                      profile_key, api})
#   parent -> worker: ("events",) -> ("events", n)  /  ("exit",)
#
# Only picklable data crosses: wire payloads (plain slots dataclasses),
# Op streams, OpRecords, HistoryEvents, the ConsistencyReport.


def _mp_worker_main(conn, cfg, spec, shards, ranks) -> None:
    try:
        domains = {rank: _Domain(rank, cfg, spec, shards) for rank in ranks}
        worker = _MpWorker(conn, cfg, spec, shards, domains)
        gc.disable()
        try:
            worker.serve()
        finally:
            gc.enable()
    except BaseException as exc:  # pragma: no cover - ships the traceback
        import traceback
        try:
            conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
        except Exception:
            pass
    finally:
        conn.close()


class _MpWorker:
    """Worker-side protocol loop around a rank -> _Domain mapping."""

    def __init__(self, conn, cfg, spec, shards, domains):
        self.conn = conn
        self.cfg = cfg
        self.spec = spec
        self.shards = shards
        self.domains = domains
        self.done: Optional[Event] = None
        self.recorder = None
        self.had_faults = False

    def _peeks(self) -> Dict[int, float]:
        return {rank: d.sim.peek() for rank, d in self.domains.items()}

    def serve(self) -> None:
        conn = self.conn
        conn.send(("ready", self._peeks()))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "phase":
                self._phase(*msg[1:])
                conn.send(("phased", self._peeks()))
            elif cmd == "step":
                conn.send(self._step(msg[1], msg[2]))
            elif cmd == "collect":
                conn.send(("collected", self._collect(msg[1])))
            elif cmd == "events":
                conn.send(("events", sum(d.sim.events_processed
                                         for d in self.domains.values())))
            elif cmd == "clock":
                conn.send(("clock", self.domains[0].sim._now))
            elif cmd == "exit":
                return
            else:  # pragma: no cover - protocol bug guard
                raise SimulationError(f"unknown worker command {cmd!r}")

    def _phase(self, measured, check, streams, fault_events) -> None:
        from repro.harness.runner import _drive_blocking, _drive_nonblocking

        for d in self.domains.values():
            d.cluster.reset_metrics()
        cd = self.domains.get(0)
        if cd is not None:
            cluster = cd.cluster
            cfg = self.cfg
            api = cfg.api or cluster.profile.api
            self.recorder = None
            if check and measured:
                from repro.consistency import HistoryRecorder
                self.recorder = HistoryRecorder().attach(cluster)
            sim = cd.sim
            drivers = []
            stagger = cfg.client_stagger
            for index, (client, ops) in enumerate(
                    zip(cluster.clients, streams)):
                if api == BLOCKING:
                    gen = _drive_blocking(client, ops,
                                          mget_batch=cfg.mget_batch,
                                          delay=index * stagger)
                else:
                    gen = _drive_nonblocking(client, ops, api, cfg.window,
                                             delay=index * stagger)
                drivers.append(sim.spawn(gen, name=f"driver-{client.name}"))
            self.done = sim.all_of(drivers)
        self.had_faults = bool(fault_events)
        if fault_events:
            # epoch rides in with the events: (epoch, [FaultEvent])
            epoch, events = fault_events
            by_rank: Dict[int, list] = {}
            for event in events:
                by_rank.setdefault(_owner_rank(event.server, self.shards),
                                   []).append(event)
            for rank, evts in by_rank.items():
                domain = self.domains[rank]
                shifted = [dataclasses.replace(
                    e, at=max(0.0, epoch + e.at - domain.sim._now))
                    for e in evts]
                FaultPlan(shifted).inject(domain.cluster)

    def _step(self, horizon, injections) -> tuple:
        for rank, entries in injections.items():
            self.domains[rank].inject(entries)
        for d in self.domains.values():
            d.sim.run_window(horizon)
        outbound = []
        for rank, d in sorted(self.domains.items()):
            for due, seq, key, payload, nbytes in d.outbound:
                outbound.append((due, rank, seq, key, payload, nbytes))
            d.outbound.clear()
        done = self.done is not None and self.done.triggered
        return ("stepped", self._peeks(), outbound, done)

    def _collect(self, faults_present: bool) -> dict:
        cd = self.domains[0]
        cluster = cd.cluster
        out = {
            "profile_key": cluster.profile.key,
            "api": self.cfg.api or cluster.profile.api,
            "records": cluster.all_records(),
            "history": None,
            "report": None,
        }
        if self.recorder is not None:
            from repro.consistency import check_run
            out["report"] = check_run(cluster, self.recorder,
                                      faults=faults_present)
            out["history"] = self.recorder.events
            self.recorder.detach()
            self.recorder = None
        return out


class _MpCoordinator:
    """Parent-side coordinator over forked workers."""

    def __init__(self, cfg, spec: ClusterSpec, shards: int, workers: int):
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX host
            raise ShardingUnsupported(
                "shard_workers needs the 'fork' start method") from exc
        self.cfg = cfg
        self.spec = spec
        self.shards = shards
        self.lookahead = spec.ipoib_params.latency
        num_ranks = shards + 1
        workers = min(workers, num_ranks)
        self.rank_of_worker = [
            [rank for rank in range(num_ranks) if rank % workers == w]
            for w in range(workers)
        ]
        self.owner_worker = {rank: rank % workers
                             for rank in range(num_ranks)}
        self.conns = []
        self.procs = []
        for w, ranks in enumerate(self.rank_of_worker):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_mp_worker_main,
                               args=(child_conn, cfg, spec, shards, ranks),
                               name=f"repro-shard-w{w}", daemon=True)
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)
        self.peeks: Dict[int, float] = {}
        for conn in self.conns:
            tag, peeks = self._recv(conn)
            assert tag == "ready"
            self.peeks.update(peeks)

    def _recv(self, conn):
        msg = conn.recv()
        if msg[0] == "error":
            self.close()
            raise SimulationError(f"sharded worker failed:\n{msg[1]}")
        return msg

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            conn.close()

    # -- one phase -------------------------------------------------------

    def run_phase(self, per_client_ops, fault_plan, measured: bool = True):
        from repro.harness.runner import RunResult

        cfg = self.cfg
        fault_arg = None
        if fault_plan is not None:
            for event in fault_plan.events:
                if not 0 <= event.server < self.spec.num_servers:
                    raise ValueError(
                        f"fault targets server {event.server} but the "
                        f"cluster has {self.spec.num_servers}")
            # Fault times anchor to the client domain's clock — the one
            # that tracks the single-simulator reference (zero on a
            # fresh build; the warmup's last completion after a phase).
            owner0 = self.conns[self.owner_worker[0]]
            owner0.send(("clock",))
            tag, epoch = self._recv(owner0)
            assert tag == "clock"
            fault_arg = (epoch, list(fault_plan.events))
        for w, conn in enumerate(self.conns):
            streams = per_client_ops if 0 in self.rank_of_worker[w] else None
            conn.send(("phase", measured, cfg.check_consistency, streams,
                       fault_arg))
        for conn in self.conns:
            tag, peeks = self._recv(conn)
            assert tag == "phased"
            self.peeks.update(peeks)
        self._drain()
        owner0 = self.conns[self.owner_worker[0]]
        owner0.send(("collect", fault_plan is not None))
        tag, out = self._recv(owner0)
        assert tag == "collected"
        records = out["records"]
        span = 0.0
        if records:
            span = (max(r.t_complete for r in records)
                    - min(r.t_issue for r in records))
        result = RunResult(profile_key=out["profile_key"], api=out["api"],
                           records=records, span=span,
                           events_processed=self.total_events())
        result.summary = metrics.summarize(records)
        result.history = out["history"]
        result.consistency = out["report"]
        return result

    def total_events(self) -> int:
        total = 0
        for conn in self.conns:
            conn.send(("events",))
            tag, n = self._recv(conn)
            assert tag == "events"
            total += n
        return total

    def _drain(self) -> None:
        inf = float("inf")
        lookahead = self.lookahead
        pending: Dict[int, list] = {}
        done = False
        while not done:
            gmin = min(self.peeks.values(), default=inf)
            for entries in pending.values():
                for entry in entries:
                    if entry[0] < gmin:
                        gmin = entry[0]
            if gmin == inf:
                self.close()
                raise SimulationError(
                    "sharded schedule drained before the drivers "
                    "finished (deadlock?)")
            horizon = gmin + lookahead
            for w, conn in enumerate(self.conns):
                injections = {}
                for rank in self.rank_of_worker[w]:
                    entries = pending.pop(rank, None)
                    if entries:
                        entries.sort(key=lambda e: (e[0], e[1], e[2]))
                        injections[rank] = [(e[0], e[3], e[4], e[5])
                                            for e in entries]
                conn.send(("step", horizon, injections))
            for conn in self.conns:
                tag, peeks, outbound, done_flag = self._recv(conn)
                assert tag == "stepped"
                self.peeks.update(peeks)
                done = done or done_flag
                for due, src_rank, seq, key, payload, nbytes in outbound:
                    dst = 0 if key[0] == "C" \
                        else _owner_rank(key[2], self.shards)
                    pending.setdefault(dst, []).append(
                        (due, src_rank, seq, key, payload, nbytes))


# -- entry points (called by RunConfig) --------------------------------------


def _make_coordinator(cfg):
    spec, shards = _validate(cfg)
    if cfg.shard_workers and cfg.shard_workers >= 2:
        return _MpCoordinator(cfg, spec, shards, cfg.shard_workers), True
    return _DomainSet(cfg, spec, shards), False


def run_sharded(cfg):
    """Sharded equivalent of :meth:`RunConfig.run` (warmup included)."""
    if cfg.workload is None:
        raise ValueError("RunConfig.run() needs a workload")
    coord, is_mp = _make_coordinator(cfg)
    num_clients = coord.spec.num_clients
    try:
        if cfg.warmup_ops > 0:
            warm_spec = dataclasses.replace(cfg.workload,
                                            num_ops=cfg.warmup_ops)
            warm = [generate_ops(warm_spec, client_index=i,
                                 stream_offset=0xABCD)
                    for i in range(num_clients)]
            coord.run_phase(warm, None, measured=False)
        if cfg.ycsb:
            letter = cfg.ycsb.upper()
            if letter not in CORE_WORKLOADS:
                raise ValueError(
                    f"unknown YCSB workload {cfg.ycsb!r}; choose from "
                    f"{sorted(CORE_WORKLOADS)}")
            wl = CORE_WORKLOADS[letter]
            streams = [generate_ycsb_ops(wl, cfg.workload.num_ops,
                                         cfg.workload.num_keys,
                                         cfg.workload.value_length,
                                         seed=cfg.workload.seed,
                                         client_index=i)
                       for i in range(num_clients)]
        else:
            streams = [generate_ops(cfg.workload, client_index=i)
                       for i in range(num_clients)]
        return coord.run_phase(streams, cfg.fault_plan, measured=True)
    finally:
        if is_mp:
            coord.close()


def run_sharded_streams(cfg, per_client_ops):
    """Sharded equivalent of :meth:`RunConfig.run_streams`."""
    coord, is_mp = _make_coordinator(cfg)
    try:
        return coord.run_phase(per_client_ops, cfg.fault_plan,
                               measured=True)
    finally:
        if is_mp:
            coord.close()

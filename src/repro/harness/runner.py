"""Drive generated workloads against a cluster and collect metrics.

The one-stop entry point is :class:`RunConfig`: declare the profile,
workload, cluster sizing, and run knobs in one dataclass, then
``build()`` a cluster and ``run()`` / ``run_streams()`` it.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core import metrics
from repro.core.cluster import Cluster, ClusterSpec, build_cluster
from repro.core.profiles import BLOCKING, NONB_B, NONB_I, DesignProfile
from repro.client.request import OpRecord
from repro.workloads.generator import Op, WorkloadSpec, generate_ops, make_dataset
from repro.workloads.traffic import TrafficShape
from repro.workloads.ycsb import CORE_WORKLOADS, generate_ycsb_ops

#: Outstanding-request cap for non-blocking drivers. Bounds client-side
#: queue growth the way a real application naturally would (it has a
#: finite number of buffers); large enough to keep the pipeline full.
DEFAULT_WINDOW = 64


@dataclass(frozen=True)
class ScaleEvent:
    """One scheduled elastic resize during the measured run.

    At ``at`` seconds after the measured drivers start, the fleet is
    driven to ``servers`` serving servers — one online migration at a
    time (add the next server / drain the highest-index one, waiting
    for each handoff to finish before the next step)."""

    at: float
    servers: int

    def __post_init__(self):
        if self.at < 0:
            raise ValueError(f"at must be >= 0, got {self.at}")
        if self.servers < 1:
            raise ValueError(f"servers must be >= 1, got {self.servers}")


@dataclass
class RunResult:
    """Everything an experiment needs from one run."""

    profile_key: str
    api: str
    records: List[OpRecord]
    span: float  # first issue -> last completion (seconds)
    summary: Dict[str, float] = field(default_factory=dict)
    #: The cluster's :class:`~repro.obs.Observability` when the run was
    #: observed (``observe=True``/``trace=True``); None otherwise.
    obs: Optional[object] = None
    #: Recorded :class:`~repro.consistency.history.HistoryEvent` list
    #: when the run had ``check_consistency=True``; None otherwise.
    history: Optional[list] = None
    #: The :class:`~repro.consistency.checker.ConsistencyReport` when
    #: the run had ``check_consistency=True``; None otherwise.
    consistency: Optional[object] = None
    #: :class:`~repro.obs.profile.ProfileReport` for the measured run
    #: when the cluster was built with ``profile=True``; None otherwise.
    profile: Optional[object] = None
    #: Total events the simulator behind this run has processed —
    #: cumulative over its lifetime (warmup and earlier runs on the same
    #: cluster included). The numerator of events/sec.
    events_processed: int = 0

    @property
    def ops(self) -> int:
        return len(self.records)


@dataclass
class RunConfig:
    """Everything one experiment run needs, declared in one place::

        cfg = RunConfig(profile=H_RDMA_OPT_NONB_I,
                        workload=WorkloadSpec(num_ops=500),
                        cluster=ClusterSpec(
                            topology=TopologyConfig(initial_servers=4),
                            num_clients=2),
                        warmup_ops=100)
        result = cfg.run()

    ``build()`` and ``run()`` are separable: build once, then drive the
    same cluster repeatedly (``run(cluster=...)`` / ``run_streams``).
    """

    profile: DesignProfile
    #: Workload shape; optional for pure-topology builds, required to
    #: ``run()``.
    workload: Optional[WorkloadSpec] = None
    #: The cluster to build: sizing, substrate, replication, topology
    #: (None builds a default :class:`ClusterSpec`).
    cluster: Optional[ClusterSpec] = None
    #: Preload the dataset into the servers (replica-aware) on build.
    preload: bool = True
    #: Inject a pre-built :class:`~repro.sim.Simulator` (e.g. one with
    #: ``fast_lane=False`` for determinism A/B checks).
    sim: Optional[object] = None
    #: Client API to drive (defaults to the profile's native API).
    api: Optional[str] = None
    #: YCSB core workload letter ("A".."F"). When set, the measured
    #: streams come from :func:`generate_ycsb_ops` (sized by
    #: ``workload``'s num_ops/num_keys/value_length/seed) instead of
    #: the generic generator; warmup still uses the generic stream.
    ycsb: Optional[str] = None
    #: Outstanding-request cap for non-blocking drivers.
    window: int = DEFAULT_WINDOW
    #: Coalesce runs of consecutive GETs into mget batches (blocking).
    mget_batch: int = 0
    #: Per-client discarded warm-up operations before the measured run.
    warmup_ops: int = 0
    #: :class:`repro.faults.FaultPlan` armed when the measured drivers
    #: start (never during warmup).
    fault_plan: Optional[object] = None
    #: Record the client-observed history and run the
    #: :mod:`repro.consistency` checker over the measured run (never
    #: the warmup). The report lands in ``RunResult.consistency`` and
    #: the raw events in ``RunResult.history``. Off by default — the
    #: hot path stays recorder-free.
    check_consistency: bool = False
    #: Elastic resizes scheduled into the measured run (never the
    #: warmup). Each event drives the serving fleet to its target size
    #: through online migrations; the run settles until the last
    #: handoff finishes. Consistency checks automatically relax to the
    #: fault ruleset (migration installs are invisible re-stores).
    scale_events: Sequence[ScaleEvent] = ()
    #: Traffic shape pacing the measured drivers (steady / diurnal /
    #: spike — :class:`~repro.workloads.traffic.TrafficShape`). None
    #: keeps the classic back-to-back issue loop byte-identical.
    traffic: Optional[TrafficShape] = None

    # -- build -------------------------------------------------------------

    def build(self) -> Cluster:
        """Build the cluster, wire backend value sizes, preload.

        The backend returns the workload's value size for any key, so
        miss repopulation keeps the dataset shape intact.
        """
        value_length_for = (self.workload.value_length_for
                            if self.workload is not None else None)
        cluster = build_cluster(self.profile, spec=self.cluster,
                                sim=self.sim,
                                value_length_for=value_length_for)
        if self.preload and self.workload is not None:
            cluster.preload(make_dataset(self.workload))
        return cluster

    # -- run ---------------------------------------------------------------

    def run(self, cluster: Optional[Cluster] = None) -> RunResult:
        """Generate per-client op streams from ``workload`` and run them.

        ``workload.num_ops`` is the per-client operation count; each
        client gets a decorrelated stream (seeded by its index). With
        ``warmup_ops``, each client first runs that many extra
        (differently-seeded) operations whose records are discarded, so
        the measured stream sees steady-state LRU/page-cache/slab state
        rather than the preload layout.
        """
        if self.workload is None:
            raise ValueError("RunConfig.run() needs a workload")
        ycsb = None
        if self.ycsb:
            ycsb = CORE_WORKLOADS.get(self.ycsb.upper())
            if ycsb is None:
                raise ValueError(
                    f"unknown YCSB workload {self.ycsb!r}; choose from "
                    f"{sorted(CORE_WORKLOADS)}")
        if cluster is None:
            cluster = self.build()
        if self.warmup_ops > 0:
            # Same spec seed => same hot-key scramble; the stream offset
            # decorrelates the warmup draws from the measured draws.
            warm_spec = dataclasses.replace(self.workload,
                                            num_ops=self.warmup_ops)
            warm_streams = [generate_ops(warm_spec, client_index=i,
                                         stream_offset=0xABCD)
                            for i in range(len(cluster.clients))]
            self._run_streams(cluster, warm_streams, fault_plan=None,
                              measured=False)
        if ycsb is not None:
            streams = [generate_ycsb_ops(ycsb, self.workload.num_ops,
                                         self.workload.num_keys,
                                         self.workload.value_length,
                                         seed=self.workload.seed,
                                         client_index=i)
                       for i in range(len(cluster.clients))]
        else:
            streams = [generate_ops(self.workload, client_index=i)
                       for i in range(len(cluster.clients))]
        return self._run_streams(cluster, streams,
                                 fault_plan=self.fault_plan)

    def run_streams(self, per_client_ops: Sequence[Sequence[Op]],
                    cluster: Optional[Cluster] = None) -> RunResult:
        """Run explicit op streams (one per client) to completion.

        ``fault_plan`` is armed right before the drivers start, so its
        event times are relative to the measured run's start.
        """
        if cluster is None:
            cluster = self.build()
        return self._run_streams(cluster, per_client_ops,
                                 fault_plan=self.fault_plan)

    def _run_streams(self, cluster: Cluster,
                     per_client_ops: Sequence[Sequence[Op]],
                     fault_plan, measured: bool = True) -> RunResult:
        api = self.api or cluster.profile.api
        if api not in (BLOCKING, NONB_B, NONB_I):
            raise ValueError(f"unknown api {api!r}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if len(per_client_ops) != len(cluster.clients):
            raise ValueError(
                f"got {len(per_client_ops)} op streams for "
                f"{len(cluster.clients)} clients; pass one per client")
        cluster.reset_metrics()
        sim = cluster.sim
        recorder = None
        if self.check_consistency and measured:
            from repro.consistency import HistoryRecorder
            recorder = HistoryRecorder().attach(cluster)
        if fault_plan is not None:
            fault_injected_at = sim.now
            cluster.inject_faults(fault_plan)
        scale_procs = []
        if measured:
            for i, ev in enumerate(self.scale_events):
                scale_procs.append(
                    sim.spawn(_scale_driver(cluster, ev.at, ev.servers),
                              name=f"scale-{i}-to{ev.servers}"))
        pacer = self.traffic if measured else None
        drivers = []
        for client, ops in zip(cluster.clients, per_client_ops):
            if api == BLOCKING:
                gen = _drive_blocking(client, ops,
                                      mget_batch=self.mget_batch,
                                      pacer=pacer)
            else:
                gen = _drive_nonblocking(client, ops, api, self.window,
                                         pacer=pacer)
            drivers.append(sim.spawn(gen, name=f"driver-{client.name}"))
        done = sim.all_of(drivers)
        sim.run(until=done)
        if measured and self.scale_events:
            # Scheduled resizes are part of the run contract even when
            # the traffic drains first: run on until every scale driver
            # has finished and the last handoff (drain included) is
            # done, so the run ends on the target topology; bounded so
            # a wedged migration (e.g. quorum lost to a fault plan)
            # cannot hang the harness.
            for _ in range(200):
                if cluster.migration is None \
                        and all(p.triggered for p in scale_procs):
                    break
                sim.run(until=sim.timeout(1e-3))
        rep = cluster.spec.replication
        if (recorder is not None and fault_plan is not None
                and rep.hlc and rep.write_mode == "async"):
            # The eventual-convergence checker needs the post-quiesce
            # state: run past the last fault's heal plus a settling
            # margin (failure detection, view propagation, anti-entropy
            # resync). Bounded timeout — with consensus on, Raft tickers
            # never drain the event queue.
            horizon = max((ev.at + (ev.duration or 0.0)
                           for ev in fault_plan.events), default=0.0)
            settle = max(0.0, fault_injected_at + horizon - sim.now) + 0.01
            sim.run(until=sim.timeout(settle))
        records = cluster.all_records()
        span = 0.0
        if records:
            span = (max(r.t_complete for r in records)
                    - min(r.t_issue for r in records))
        result = RunResult(profile_key=cluster.profile.key, api=api,
                           records=records, span=span,
                           obs=cluster.obs if cluster.obs.enabled else None,
                           events_processed=sim.events_processed)
        result.summary = metrics.summarize(records, span=span)
        if measured and cluster.obs.profiler.enabled:
            result.profile = cluster.obs.profiler.report()
        if recorder is not None:
            from repro.consistency import check_run
            elastic = (bool(self.scale_events)
                       or cluster.topology.autoscale is not None)
            result.consistency = check_run(
                cluster, recorder,
                faults=fault_plan is not None or elastic)
            result.history = recorder.events
            recorder.detach()
        return result


def _scale_driver(cluster, at: float, target: int):
    """Drive the serving fleet to ``target`` servers, one online
    migration at a time, starting ``at`` seconds from spawn."""
    if at > 0:
        yield cluster.sim.timeout(at)
    while True:
        serving = cluster.serving_indices()
        if len(serving) < target:
            yield cluster.admin.add_server()
        elif len(serving) > target:
            yield cluster.admin.remove_server(serving[-1])
        else:
            return


def _drive_blocking(client, ops: Sequence[Op], mget_batch: int = 0,
                    pacer=None):
    """Blocking driver; with ``mget_batch`` > 1, consecutive reads are
    coalesced into memcached_mget batches (how production web tiers
    fetch the many keys of one page render). ``pacer`` (a
    :class:`~repro.workloads.traffic.TrafficShape`) inserts a
    deterministic inter-op sleep; None keeps the classic back-to-back
    loop byte-identical."""
    pending_reads: list = []

    def flush_reads():
        if len(pending_reads) == 1:
            yield from client.get(pending_reads[0])
        elif pending_reads:
            yield from client.mget(list(pending_reads))
        pending_reads.clear()

    for op in ops:
        if pacer is not None:
            yield client.sim.timeout(pacer.interval_at(client.sim.now))
        if op.kind == "get" and mget_batch > 1:
            pending_reads.append(op.key)
            if len(pending_reads) >= mget_batch:
                yield from flush_reads()
            continue
        yield from flush_reads()
        if op.kind == "get":
            yield from client.get(op.key)
        elif op.kind == "rmw":
            # Read-modify-write (YCSB F): read, then write back.
            yield from client.get(op.key)
            yield from client.set(op.key, op.value_length)
        elif op.kind == "scan":
            # Range scan (YCSB E): one multi-get over the key range.
            yield from client.mget(list(op.keys) or [op.key])
        elif op.kind == "incr":
            yield from client.incr(op.key, op.delta, initial=op.initial)
        elif op.kind == "decr":
            yield from client.decr(op.key, op.delta, initial=op.initial)
        elif op.kind == "gat":
            yield from client.gat(op.key, client.sim.now + op.ttl)
        elif op.kind == "touch":
            yield from client.touch(op.key, client.sim.now + op.ttl)
        else:
            expiration = client.sim.now + op.ttl if op.ttl else 0.0
            yield from client.set(op.key, op.value_length,
                                  expiration=expiration)
    yield from flush_reads()
    # Drain background work (async replica propagation); a no-op — zero
    # sim events — when nothing is outstanding.
    yield from client.quiesce()


def _drive_nonblocking(client, ops: Sequence[Op], api: str, window: int,
                       pacer=None):
    issue_set = client.iset if api == NONB_I else client.bset
    issue_get = client.iget if api == NONB_I else client.bget
    inflight = deque()
    # Hot per-op loop: hoist the bound methods and the sim handle so the
    # driver adds as little as possible on top of the client work.
    wait = client.wait
    popleft = inflight.popleft
    append = inflight.append
    sim = client.sim
    for op in ops:
        if pacer is not None:
            yield sim.timeout(pacer.interval_at(sim.now))
        if len(inflight) >= window:
            yield from wait(popleft())
        kind = op.kind
        if kind == "get":
            req = yield from issue_get(op.key)
        elif kind == "rmw":
            # The read must complete before the dependent write issues.
            read = yield from issue_get(op.key)
            yield from wait(read)
            req = yield from issue_set(op.key, op.value_length)
        elif kind in ("scan", "incr", "decr", "gat", "touch"):
            # No non-blocking variants of these APIs — run them inline
            # (they complete before returning; nothing joins the window).
            if kind == "scan":
                yield from client.mget(list(op.keys) or [op.key])
            elif kind == "incr":
                yield from client.incr(op.key, op.delta,
                                       initial=op.initial)
            elif kind == "decr":
                yield from client.decr(op.key, op.delta,
                                       initial=op.initial)
            elif kind == "gat":
                yield from client.gat(op.key, sim._now + op.ttl)
            else:
                yield from client.touch(op.key, sim._now + op.ttl)
            continue
        else:
            expiration = sim._now + op.ttl if op.ttl else 0.0
            req = yield from issue_set(op.key, op.value_length,
                                       expiration=expiration)
        append(req)
    while inflight:
        yield from wait(popleft())
    # Drain background work (async replica propagation); a no-op — zero
    # sim events — when nothing is outstanding.
    yield from client.quiesce()

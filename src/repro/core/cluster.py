"""Cluster construction: wire clients, servers, fabric, and backend.

``build_cluster`` turns a :class:`~repro.core.profiles.DesignProfile`
plus sizing knobs into a ready-to-run deployment: one fabric, N servers
on their own nodes, M clients spread over a configurable number of
client nodes (sharing NICs like the paper's 100-clients-on-32-nodes
setup), full client-server connectivity, and a shared backend database
for miss penalties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.client.backend import BackendDatabase
from repro.client.client import ClientConfig, MemcachedClient
from repro.client.hashing import RouterTable
from repro.core.profiles import DesignProfile
from repro.core.topology import ClusterAdmin, TopologyConfig
from repro.net.fabric import Fabric
from repro.net.params import FDR_IPOIB, FDR_RDMA, LinkParams
from repro.net.transport import connect_ipoib, connect_rdma
from repro.obs.api import NULL_OBS, Observability
from repro.server.server import MemcachedServer, ServerConfig, ServerCosts
from repro.sim import Simulator
from repro.storage.params import (
    DeviceParams,
    PageCacheParams,
    SATA_SSD,
)
from repro.units import GB, MB, MS


@dataclass(frozen=True)
class ReplicationConfig:
    """Every replication knob in one typed place.

    The only spelling of factor, write mode and router (a
    :class:`ClusterSpec` has no flat replication kwargs), plus the
    consensus / convergence extensions:

    * ``consensus`` — run a :class:`~repro.consensus.RaftGroup` over
      the server nodes that owns membership and ring epochs; clients
      subscribe to committed views instead of relying purely on
      ejection heuristics.
    * ``hlc`` — stamp every write with a hybrid logical clock and merge
      replicas last-writer-wins, so concurrent async writes under a
      partition converge (anti-entropy resync becomes a bidirectional
      LWW merge).
    """

    #: Copies of each key (primary + factor-1 ring/probe successors).
    factor: int = 1
    #: "sync": writes ack after every replica; "async": after the
    #: primary alone, replicas propagate in the background.
    write_mode: str = "sync"
    #: Client request router: "modulo" (libmemcached default) or
    #: "ketama" (consistent hashing; required for clean failover).
    router: str = "modulo"
    #: Consensus-owned membership (Raft group on the server nodes).
    consensus: bool = False
    #: Hybrid-logical-clock stamps + last-writer-wins replica merge.
    hlc: bool = False
    #: Raft election timeout range (seconds, randomized per node).
    election_timeout: Tuple[float, float] = (1.5e-3, 3.0e-3)
    #: Raft leader heartbeat period (seconds).
    heartbeat_interval: float = 0.5e-3
    #: Delay from view commit to each client observing it (seconds).
    view_notify_delay: float = 10e-6
    #: Seed for the per-node election-timeout RNGs.
    raft_seed: int = 0
    #: Period of the background anti-entropy gossip rounds (seconds;
    #: HLC clusters only, 0 disables). Each round is a cluster-wide
    #: pairwise LWW merge between live servers, so replicas that missed
    #: writes (degraded fan-out while a peer was ejected or excluded by
    #: a view) converge without waiting for the next fault heal.
    anti_entropy_interval: float = 2e-3

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError(
                f"replication factor must be >= 1, got {self.factor}")
        if self.write_mode not in ("sync", "async"):
            raise ValueError(
                f"write_mode must be 'sync' or 'async', "
                f"got {self.write_mode!r}")


@dataclass
class ClusterSpec:
    """Sizing and substrate knobs for :func:`build_cluster`."""

    num_clients: int = 1
    #: Physical client nodes; clients share NICs when fewer than clients.
    client_nodes: Optional[int] = None
    #: Memory limit **per server**.
    server_mem: int = 1 * GB
    #: SSD budget **per server** (hybrid designs).
    ssd_limit: int = 4 * GB
    device: DeviceParams = SATA_SSD
    page_size: int = 1 * MB
    backend_penalty: float = 2 * MS
    recv_credits: int = 16
    worker_threads: int = 8
    pagecache: PageCacheParams = field(default_factory=PageCacheParams)
    costs: ServerCosts = field(default_factory=ServerCosts)
    rdma_params: LinkParams = FDR_RDMA
    ipoib_params: LinkParams = FDR_IPOIB
    promote_policy: str = "always"
    victim_policy: str = "coldest"
    adaptive_cutoff: int = 32 * 1024
    #: Asynchronous SSD flushes (the paper's future-work extension).
    async_flush: bool = False
    flush_buffers: int = 4
    #: Slab automover (memcached's rebalancer) for shifting workloads.
    automove: bool = False
    #: Schedule GETs ahead of SETs in the server worker queue.
    get_priority: bool = False
    #: Active TTL reclaim (background expiry sweeper on each server).
    active_expiry: bool = True
    expiry_interval: float = 0.005
    expiry_budget: int = 128
    # -- client fault tolerance (None keeps the pre-fault fast path) -------
    #: Per-request completion timeout (seconds); enables timeout/retry/
    #: ejection/failover on every client.
    request_timeout: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 200e-6
    failure_threshold: int = 2
    #: Re-probe an ejected server after this many seconds (None: never).
    eject_duration: Optional[float] = None
    #: The replication configuration (factor, write mode, router,
    #: consensus membership, HLC convergence). The default is R=1,
    #: which keeps single-copy behaviour and cost.
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    #: The elastic-topology configuration (initial fleet size,
    #: migration budget, autoscaler policy).
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    #: Live metrics registry + gauge sampler (see :mod:`repro.obs`).
    observe: bool = False
    #: Sim-time span tracing (Chrome ``trace_event`` export).
    trace: bool = False
    #: Per-request causal profiling (critical-path latency breakdown).
    profile: bool = False
    #: Profile every Nth request (1 = all); macro runs stay bounded.
    profile_sample: int = 1
    #: Keep raw span tuples per sampled request (tests/debugging only).
    profile_keep_traces: bool = False
    #: Gauge-sampling period in seconds; defaults to 100 µs when
    #: ``observe`` is on and no interval is given.
    sample_interval: Optional[float] = None


class Cluster:
    """A deployed simulation: fabric + servers + clients + backend."""

    def __init__(self, sim: Simulator, profile: DesignProfile,
                 spec: ClusterSpec, servers: List[MemcachedServer],
                 clients: List[MemcachedClient], backend: BackendDatabase,
                 fabric: Fabric, obs: Optional[Observability] = None,
                 routers: Optional[RouterTable] = None):
        self.sim = sim
        self.profile = profile
        self.spec = spec
        self.servers = servers
        self.clients = clients
        self.backend = backend
        self.fabric = fabric
        self.obs = obs or NULL_OBS
        #: The routers of this cluster, one per ring size: every client,
        #: preload, resync and migration routes through these instances
        #: (see :meth:`_client_router`).
        self.routers = routers or RouterTable()
        #: :class:`repro.consensus.RaftGroup` when the spec enables
        #: consensus-owned membership; None otherwise.
        self.raft = None
        #: Typed elastic-topology knobs (migration budget,
        #: autoscaler policy) — see :class:`TopologyConfig`.
        self.topology: TopologyConfig = spec.topology
        #: Online admin facade: ``add_server`` / ``remove_server`` /
        #: ``rebalance`` / ``topology()``.
        self.admin = ClusterAdmin(self)
        # -- published topology view state --------------------------------
        # The ring only ever grows (removals become exclusions so ketama
        # points and modulo residues of the survivors never move);
        # ``_excluded`` is an insertion-ordered dict used as a set.
        self._view_ring = len(servers)
        self._excluded: dict = {}
        self._view_epoch = 0
        self._migration = None
        self._ownership: List[float] = []
        # Stashed by build_cluster so _spawn_server can wire new servers
        # exactly like the originals.
        self._server_cfg = None
        self._client_nodes = 0

    def run(self, until=None):
        return self.sim.run(until=until)

    @property
    def replication_factor(self) -> int:
        return self.spec.replication.factor

    def server_node(self, index: int):
        """The fabric node hosting server ``index``."""
        return self.fabric.node(f"snode{index}")

    # -- elastic topology ----------------------------------------------------

    @property
    def migration(self):
        """The in-flight :class:`~repro.core.migration.Migration`, or
        None outside a handoff window."""
        return self._migration

    @property
    def hlc_enabled(self) -> bool:
        return self.spec.replication.hlc

    @property
    def view_epoch(self) -> int:
        """The committed topology epoch (Raft's when consensus owns
        membership, the direct-publish counter otherwise)."""
        if self.raft is not None and self.raft.view is not None:
            return self.raft.view.epoch
        return self._view_epoch

    def serving_indices(self) -> List[int]:
        """Server indices in the current admin view (ring minus
        exclusions) — crashed-but-serving servers are included."""
        return [i for i in range(len(self.servers))
                if i not in self._excluded]

    def topology_alive(self):
        """Admin-topology liveness set for routing decisions, or None
        when no server is excluded (the pre-elastic fast path: passing
        None keeps every router call byte-identical to a cluster that
        never scaled)."""
        if not self._excluded:
            return None
        return frozenset(i for i in range(len(self.servers))
                         if i not in self._excluded)

    def ownership_share(self, index: int) -> float:
        """Keyspace share of server ``index`` under the current view
        (recomputed at each publish — gauge-sampling hot path)."""
        shares = self._ownership
        if not shares:
            shares = self._ownership = \
                self._client_router().ownership(self.topology_alive())
        return shares[index] if index < len(shares) else 0.0

    def _spawn_server(self, index: int):
        """Append one fresh server on its own fabric node, wired to
        every client exactly like the originals (RDMA or IPoIB per the
        design profile). The new server owns nothing until a migration
        publishes a view that includes it."""
        if self._server_cfg is None:
            raise RuntimeError(
                "cluster was not assembled by build_cluster(); "
                "cannot spawn servers at runtime")
        server = MemcachedServer(self.sim, self._server_cfg,
                                 name=f"server{index}", obs=self.obs)
        server.index = index
        server.start()
        self.servers.append(server)
        server_node = self.fabric.node(f"snode{index}")
        n_nodes = self._client_nodes or max(1, len(self.clients))
        for i, client in enumerate(self.clients):
            client_node = self.fabric.node(f"cnode{i % n_nodes}")
            if self.profile.rdma:
                cli_ep, srv_ep = connect_rdma(self.sim, client_node,
                                              server_node,
                                              self.spec.rdma_params)
            else:
                cli_ep, srv_ep = connect_ipoib(self.sim, client_node,
                                               server_node,
                                               self.spec.ipoib_params)
            server.attach(srv_ep)
            client.add_server(cli_ep, server)
        if self.raft is not None:
            self.raft.add_data_server(server)
        if self.spec.observe:
            self.obs.registry.gauge(
                "ownership_share",
                fn=(lambda c=self, i=index: c.ownership_share(i)),
                server=server.name)
        return server

    def _apply_topology(self, ring_size: int, excluded) -> None:
        """Publish a new topology view: record it, recompute ownership,
        and notify every client — through the Raft group when consensus
        owns membership (the view commits and fans out like any other
        membership change), by direct delayed per-client epoch publish
        otherwise."""
        self._view_ring = ring_size
        self._excluded = {i: True for i in sorted(excluded)}
        alive = self.topology_alive()
        self._ownership = self._client_router().ownership(alive)
        if self.raft is not None:
            self.raft.propose_topology(ring_size, self._excluded)
            return
        self._view_epoch += 1
        epoch = self._view_epoch
        alive_set = (alive if alive is not None
                     else frozenset(range(ring_size)))
        delay = self.spec.replication.view_notify_delay

        def _notify():
            if delay > 0:
                yield self.sim.timeout(delay)
            for client in self.clients:
                client.apply_view(epoch, alive_set, ring_size)

        self.sim.spawn(_notify(), name=f"view-publish-{epoch}")

    # -- experiment setup ----------------------------------------------------

    def _client_router(self, ring_size: int = 0):
        """The router the clients use over ``ring_size`` slots (default:
        every server) — the same instance, from :attr:`routers`, so its
        memo of key positions is shared too."""
        router_name = (self.clients[0].config.router if self.clients
                       else self.spec.replication.router)
        return self.routers.get(router_name, ring_size or len(self.servers))

    def preload(self, pairs: Sequence[Tuple[bytes, int]]) -> int:
        """Load key-value pairs into the servers, routed exactly as the
        clients will route their requests **under the current view
        epoch** (zero simulated time) — a server that was removed from
        the topology owns nothing, and preloading it would both waste
        its memory and hide routing bugs. With replication, every
        replica of a key is preloaded."""
        router = self._client_router()
        alive = self.topology_alive()
        r = min(self.replication_factor, len(self.servers))
        n = 0
        if r > 1:
            for key, value_length in pairs:
                for idx in router.replicas_for(key, r, alive):
                    self.servers[idx].manager.preload(key, value_length)
                n += 1
        else:
            for key, value_length in pairs:
                self.servers[router.server_for(key, alive)].manager.preload(
                    key, value_length)
                n += 1
        return n

    def inject_faults(self, plan) -> None:
        """Arm a :class:`repro.faults.FaultPlan` on this cluster."""
        plan.inject(self)

    # -- replication repair --------------------------------------------------

    def restart_server(self, index: int, wipe: bool = False) -> int:
        """Restart a crashed server and — with replication — resync it
        from the live replicas before it takes traffic again. Returns
        the number of items copied in."""
        self.servers[index].restart(wipe=wipe)
        return self.resync_server(index)

    def resync_server(self, index: int) -> int:
        """Anti-entropy catch-up for a rejoined server (zero sim time).

        Walks every live peer's table and re-materializes the items the
        rejoined server is a replica of but lost (crash wipe) or missed
        (writes propagated while it was down/partitioned). Modeled as an
        out-of-band bulk transfer — the same idealization ``preload``
        makes for experiment setup. No-op at R=1."""
        r = min(self.replication_factor, len(self.servers))
        if r <= 1:
            return 0
        if index in self._excluded:
            return 0  # not in the current view: owns nothing to resync
        target = self.servers[index]
        if not (target.alive and target.reachable):
            return 0
        router = self._client_router()
        alive = self.topology_alive()
        if self.spec.replication.hlc:
            copied = self._resync_hlc(index, target, router, r, alive)
        else:
            table = target.manager.table
            copied = 0
            for donor_index, donor in enumerate(self.servers):
                if donor is target or donor_index in self._excluded \
                        or not (donor.alive and donor.reachable):
                    continue
                for key, value_length, expiration, numeric, _hlc in \
                        donor.manager.live_items():
                    if key in table:
                        continue
                    if index not in router.replicas_for(key, r, alive):
                        continue
                    target.manager.preload(key, value_length,
                                           expiration=expiration,
                                           numeric=numeric)
                    copied += 1
        if copied:
            self.obs.registry.counter(
                "resync_items", server=str(index)).inc(copied)
        return copied

    def _resync_hlc(self, index: int, target, router, r: int,
                    alive=None) -> int:
        """Bidirectional last-writer-wins merge between the rejoined
        server and every live peer.

        Items *and* tombstones flow both ways, each transfer gated by
        HLC order (:meth:`~repro.server.hybrid.HybridSlabManager
        .merge_item` / ``apply_tombstone``) and restricted to keys the
        receiving side replicates. One direction alone is wrong: the
        rejoined server may hold the only surviving copy of a write it
        acked just before the fault cut it off."""
        copied = 0
        for donor_index, donor in enumerate(self.servers):
            if donor is target or donor_index in self._excluded \
                    or not (donor.alive and donor.reachable):
                continue
            copied += self._merge_lww(donor, target, index, router, r,
                                      alive)
            copied += self._merge_lww(target, donor, donor_index,
                                      router, r, alive)
        return copied

    @staticmethod
    def _merge_lww(src, dst, dst_index: int, router, r: int,
                   alive=None) -> int:
        moved = 0
        dst_manager = dst.manager
        for key, value_length, expiration, numeric, hlc in \
                src.manager.live_items():
            if dst_index not in router.replicas_for(key, r, alive):
                continue
            if dst_manager.merge_item(key, value_length,
                                      expiration=expiration,
                                      numeric=numeric, hlc=hlc):
                moved += 1
        for key, stamp in src.manager.tombstones.items():
            if dst_index not in router.replicas_for(key, r, alive):
                continue
            if dst_manager.apply_tombstone(key, stamp):
                moved += 1
        return moved

    def run_anti_entropy(self) -> int:
        """One background gossip round: pairwise last-writer-wins merge
        between every ordered pair of live servers.

        Heal-time resync only repairs the server that rejoined; it never
        touches divergence between peers that stayed up — stand-in
        writes that landed off the replica set during a partition, or
        fan-outs degraded by a client still ejecting/excluding the
        healed server. Periodic gossip (HLC clusters only) is what makes
        those converge without another fault event."""
        r = min(self.replication_factor, len(self.servers))
        if r <= 1 or not self.spec.replication.hlc:
            return 0
        router = self._client_router()
        alive = self.topology_alive()
        live = [(i, s) for i, s in enumerate(self.servers)
                if s.alive and s.reachable and i not in self._excluded]
        moved = 0
        for _, src in live:
            for dst_index, dst in live:
                if dst is src:
                    continue
                moved += self._merge_lww(src, dst, dst_index, router, r,
                                         alive)
        if moved:
            self.obs.registry.counter("anti_entropy_items").inc(moved)
        return moved

    def reset_metrics(self, registry: bool = False) -> None:
        """Zero run-scoped counters on clients AND servers, so
        back-to-back runs on one cluster don't bleed into each other.
        ``registry=True`` also zeroes the obs registry's series in
        place (off by default: registry totals stay cumulative for
        whole-process exports)."""
        for c in self.clients:
            c.reset_metrics()
        for s in self.servers:
            s.reset_metrics()
        if registry:
            self.obs.registry.reset()
        # Warmup requests must not pollute the measured profile.
        self.obs.profiler.reset()

    # -- metric access ---------------------------------------------------------

    def all_records(self):
        out = []
        for c in self.clients:
            out.extend(c.records)
        return out

    @property
    def total_items(self) -> int:
        return sum(len(s.manager.table) for s in self.servers)


def build_cluster(profile: DesignProfile,
                  spec: Optional[ClusterSpec] = None,
                  value_length_for: Optional[Callable[[bytes], int]] = None,
                  **spec_overrides) -> Cluster:
    """Assemble a cluster for one design profile.

    ``spec_overrides`` are :class:`ClusterSpec` fields given as keywords
    instead of a ready-made ``spec`` (e.g. ``num_clients=2``).
    """
    if spec is None:
        spec = ClusterSpec(**spec_overrides)
    elif spec_overrides:
        raise TypeError("pass either spec or keyword overrides, not both")
    rep = spec.replication
    num_servers = spec.topology.initial_servers
    if rep.factor > num_servers:
        raise ValueError(
            f"replication factor must be <= initial_servers="
            f"{num_servers}, got {rep.factor}")
    sim = Simulator()
    if spec.observe or spec.trace or spec.profile:
        interval = spec.sample_interval
        if spec.observe and interval is None:
            interval = 100e-6
        obs = Observability(sim, metrics=spec.observe, trace=spec.trace,
                            sample_interval=interval if spec.observe else None,
                            profile=spec.profile,
                            profile_sample=spec.profile_sample,
                            profile_keep_traces=spec.profile_keep_traces)
        sim.tracer = obs.tracer
    else:
        obs = NULL_OBS
    fabric = Fabric(sim, obs=obs)
    backend = BackendDatabase(sim, penalty=spec.backend_penalty,
                              value_length_for=value_length_for)

    server_cfg = ServerConfig(
        mem_limit=spec.server_mem,
        page_size=spec.page_size,
        ssd=spec.device if profile.hybrid else None,
        ssd_limit=spec.ssd_limit,
        io_policy=profile.io_policy,
        adaptive_cutoff=spec.adaptive_cutoff,
        promote_policy=spec.promote_policy,
        victim_policy=spec.victim_policy,
        worker_threads=spec.worker_threads,
        recv_credits=spec.recv_credits,
        early_ack=profile.early_ack,
        async_flush=spec.async_flush,
        flush_buffers=spec.flush_buffers,
        automove=spec.automove,
        get_priority=spec.get_priority,
        active_expiry=spec.active_expiry,
        expiry_interval=spec.expiry_interval,
        expiry_budget=spec.expiry_budget,
        pagecache=spec.pagecache,
        costs=spec.costs,
    )
    servers = []
    for i in range(num_servers):
        server = MemcachedServer(sim, server_cfg, name=f"server{i}",
                                 obs=obs)
        server.index = i
        server.start()
        servers.append(server)

    client_cfg = ClientConfig(nonblocking_allowed=profile.nonblocking,
                              router=rep.router,
                              request_timeout=spec.request_timeout,
                              max_retries=spec.max_retries,
                              retry_backoff=spec.retry_backoff,
                              failure_threshold=spec.failure_threshold,
                              eject_duration=spec.eject_duration,
                              replication_factor=rep.factor,
                              write_mode=rep.write_mode,
                              hlc=rep.hlc)
    n_nodes = spec.client_nodes or spec.num_clients
    routers = RouterTable()
    clients = []
    for i in range(spec.num_clients):
        client = MemcachedClient(sim, name=f"client{i}", config=client_cfg,
                                 backend=backend, obs=obs, origin=i,
                                 routers=routers)
        client_node = fabric.node(f"cnode{i % n_nodes}")
        for j, server in enumerate(servers):
            server_node = fabric.node(f"snode{j}")
            if profile.rdma:
                cli_ep, srv_ep = connect_rdma(sim, client_node, server_node,
                                              spec.rdma_params)
            else:
                cli_ep, srv_ep = connect_ipoib(sim, client_node, server_node,
                                               spec.ipoib_params)
            server.attach(srv_ep)
            client.add_server(cli_ep, server)
        clients.append(client)

    cluster = Cluster(sim, profile, spec, servers, clients, backend,
                      fabric, obs=obs, routers=routers)
    cluster._server_cfg = server_cfg
    cluster._client_nodes = n_nodes
    if spec.observe:
        obs.registry.gauge(
            "topology_epoch", fn=lambda c=cluster: float(c.view_epoch))
        for i, server in enumerate(servers):
            obs.registry.gauge(
                "ownership_share",
                fn=(lambda c=cluster, idx=i: c.ownership_share(idx)),
                server=server.name)
    topo = spec.topology
    if topo.autoscale is not None:
        from repro.core.migration import autoscaler_loop
        sim.spawn(autoscaler_loop(cluster, topo.autoscale),
                  name="autoscaler")
    if rep.consensus:
        # Consensus is control-plane machinery between the server
        # nodes; import lazily so replication-free builds never pay for
        # (or depend on) it.
        from repro.consensus import RaftGroup
        cluster.raft = RaftGroup(
            sim, servers,
            [fabric.node(f"snode{i}") for i in range(num_servers)],
            obs.registry,
            heartbeat_interval=rep.heartbeat_interval,
            election_timeout=rep.election_timeout,
            view_notify_delay=rep.view_notify_delay,
            seed=rep.raft_seed)
        for client in clients:
            cluster.raft.subscribe(client.apply_view)
            obs.registry.gauge(
                "client_view_epoch",
                fn=(lambda c=client: float(c.view_epoch)),
                client=client.name)
    if rep.hlc and rep.anti_entropy_interval > 0:
        def _anti_entropy_loop():
            while True:
                yield sim.timeout(rep.anti_entropy_interval)
                cluster.run_anti_entropy()

        sim.spawn(_anti_entropy_loop(), name="anti-entropy")
    return cluster

"""Online shard migration: the elastic-scaling transfer engine.

A :class:`Migration` moves a cluster from its current published view
(ring size + admin-excluded servers) to a new one **while the cluster
serves traffic**, generalizing the anti-entropy resync path into a
budgeted online transfer. There is one protocol — publish first, pull
on miss:

* **Publish** — the epoch-bumped view goes out first (through the Raft
  group when consensus is on, direct per-client epoch publish
  otherwise) and clients re-route in one step. Every participating
  server enters the handoff window in the same zero-time block.
* **Pull on miss** — a new owner serves immediately; the first request
  for a key it does not hold yet materializes the key from its old
  owner before it is served (zero-time, the ``double_reads`` counter).
* **Copy** — behind the cutover, a cursor walk over each donor's
  table back-fills every item the new view owns elsewhere to its new
  owner, only where the owner holds nothing yet (HLC-stamped items go
  through the last-writer-wins ``merge_item``), ``migration_batch``
  items per burst with ``migration_interval`` of simulated time
  between bursts so live traffic keeps its share of the fleet.
* **Drain** — after ``drain_delay`` (and, under consensus, after the
  view actually commits) donors drop the items the new view owns
  elsewhere.

Writes that reach an old owner from a client still on the old view are
safe by construction: every local mutation on a participating server
runs through :meth:`HandoffState.note_write` *after* it applies, and a
mutation of a key the new view owns elsewhere re-pushes the key's
current state to its new owner immediately — before the donor's
response forms, so ordering the write after any already-completed
write at the target is a valid linearization. The donor keeps this
state after the migration ends, so even a pathologically stale client
cannot strand a write on it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.client.hashing import make_router

__all__ = ["HandoffState", "Migration", "autoscaler_loop"]

#: Bound on the per-migration key->owner memo (hot-path ownership checks).
_OWNER_CACHE_MAX = 1 << 20


class HandoffState:
    """Per-server migration-window state consulted on the request path.

    One instance per participating server; a server can play both roles
    at once (lose some keys, gain others — the modulo router reshuffles
    almost everything on a ring-size change):

    * donor: a mutation of a key the new view owns elsewhere re-pushes
      the key's current state to its new owner immediately.
    * target: ``pulling`` enables pull-on-miss from the old owner, and
      ``written`` records keys already written here so the background
      copy walk cannot resurrect stale donor state over them.
    """

    __slots__ = ("migration", "pulling", "written")

    def __init__(self, migration: "Migration"):
        self.migration = migration
        self.pulling = False
        # An insertion-ordered dict, not a set: iteration order feeds
        # the deterministic replay invariant.
        self.written: dict = {}

    def note_write(self, server, key: bytes) -> None:
        """Record a local mutation that just applied on ``server``."""
        migration = self.migration
        if migration.owner_of(key) != server.index:
            migration.push_current(server, key)
        elif self.pulling:
            self.written[key] = True


class Migration:
    """One online view change: publish, pull on miss, copy, drain."""

    def __init__(self, cluster, *, ring_size: int,
                 excluded: Sequence[int], copy: bool = True,
                 force_all_donors: bool = False):
        self.cluster = cluster
        self.cfg = cluster.topology
        self.ring_size = ring_size
        self.excluded = tuple(sorted(excluded))
        self.copy = copy
        router_name = cluster.spec.replication.router
        excl = frozenset(self.excluded)
        self.new_router = make_router(router_name, ring_size)
        self.new_alive = (frozenset(range(ring_size)) - excl
                          if excl else None)
        self.old_ring = cluster._view_ring
        old_excl = frozenset(cluster._excluded)
        self.old_router = make_router(router_name, self.old_ring)
        self.old_alive = (frozenset(range(self.old_ring)) - old_excl
                          if old_excl else None)
        old_serving = [i for i in range(self.old_ring) if i not in old_excl]
        newly_excluded = [i for i in self.excluded if i not in old_excl]
        reincluded = sorted(old_excl - excl)
        if (ring_size == self.old_ring and newly_excluded
                and not reincluded and not force_all_donors):
            # Pure removal: only the leaving servers lose keys — both
            # routers move nothing between the surviving servers.
            self.donor_indices: List[int] = newly_excluded
        else:
            self.donor_indices = old_serving
        self.items_moved = 0
        self._owner_cache: dict = {}
        registry = cluster.obs.registry
        self._c_items = registry.counter("migration_items")
        self._registry = registry
        self._proc = None

    # -- ownership ----------------------------------------------------------

    def owner_of(self, key: bytes) -> int:
        """The key's owner under the *new* view (memoized — this runs on
        every write a participating server applies)."""
        owner = self._owner_cache.get(key)
        if owner is None:
            if len(self._owner_cache) >= _OWNER_CACHE_MAX:
                self._owner_cache.clear()
            owner = self.new_router.server_for(key, self.new_alive)
            self._owner_cache[key] = owner
        return owner

    def old_owner_of(self, key: bytes) -> int:
        return self.old_router.server_for(key, self.old_alive)

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Spawn the migration process; returns its process event."""
        cluster = self.cluster
        cluster._migration = self
        self._proc = cluster.sim.spawn(self._run(), name="migration")
        return self._proc

    def _run(self):
        """Publish first: new owners serve immediately, pulling missing
        keys from the old owners on demand while the copy walk
        back-fills behind them."""
        cluster = self.cluster
        donors = [cluster.servers[i] for i in self.donor_indices]
        targets = [cluster.servers[i] for i in range(self.ring_size)
                   if self.new_alive is None or i in self.new_alive]
        for donor in donors:
            donor.handoff = HandoffState(self)
        for target in targets:
            state = target.handoff
            if state is None or state.migration is not self:
                state = target.handoff = HandoffState(self)
            state.pulling = True
        self._publish()
        if self.copy:
            yield from self._cursor_walk(donors)
        for target in targets:
            state = target.handoff
            if state is not None and state.migration is self:
                state.pulling = False
                state.written.clear()
        yield from self._drain(donors)

    def _cursor_walk(self, donors):
        """Budgeted copy: ``migration_batch`` items per burst, then one
        ``migration_interval`` sleep, so the zero-time installs never
        starve live traffic of simulated progress."""
        cluster = self.cluster
        sim = cluster.sim
        cfg = self.cfg
        burst = 0
        for donor in donors:
            manager = donor.manager
            # Snapshot the keys: live traffic mutates the table between
            # bursts, and each key is re-peeked at its own turn anyway.
            for key in list(manager.table.keys()):
                if not (donor.alive and donor.reachable):
                    break  # crashed/partitioned mid-walk: nothing to copy
                owner = self.owner_of(key)
                if owner == donor.index:
                    continue
                record = manager.peek(key)
                if record is None:
                    continue
                if self._install(owner, key, record):
                    self.items_moved += 1
                    self._c_items.inc()
                burst += 1
                if burst >= cfg.migration_batch:
                    burst = 0
                    if cfg.migration_interval > 0:
                        yield sim.timeout(cfg.migration_interval)

    def _install(self, owner: int, key: bytes, record) -> bool:
        target = self.cluster.servers[owner]
        if not (target.alive and target.reachable):
            return False
        # The target is already serving this key: its own copy (pulled,
        # pushed or user-written) is newer than anything the cursor
        # carries.
        state = target.handoff
        if state is not None and key in state.written:
            return False
        manager = target.manager
        if manager.peek(key) is not None:
            return False
        return self._put_record(manager, key, record)

    def _put_record(self, manager, key: bytes, record) -> bool:
        """Install one peeked donor record in ``manager`` (zero-time):
        an HLC-stamped item through the last-writer-wins merge, anything
        else as a plain overwrite. Returns True when it was installed."""
        value_length, expiration, numeric, hlc = record
        if hlc is not None and self.cluster.hlc_enabled:
            return manager.merge_item(key, value_length,
                                      expiration=expiration,
                                      numeric=numeric, hlc=hlc)
        manager.preload(key, value_length, expiration=expiration,
                        numeric=numeric)
        return True

    # -- handoff-window transfers -------------------------------------------

    def push_current(self, donor, key: bytes) -> None:
        """Re-push ``key``'s *current* donor state (value or absence) to
        its new owner, zero-time. Called for every write that lands on a
        donor for a key the new view owns elsewhere."""
        owner = self.owner_of(key)
        if owner == donor.index:
            return
        cluster = self.cluster
        target = cluster.servers[owner]
        if not (target.alive and target.reachable):
            return
        manager = target.manager
        record = donor.manager.peek(key)
        if record is None:
            stamp = (donor.manager.tombstones.get(key)
                     if cluster.hlc_enabled else None)
            if stamp is not None:
                manager.apply_tombstone(key, stamp)
            else:
                manager.discard(key)
        else:
            self._put_record(manager, key, record)
            self.items_moved += 1
            self._c_items.inc()
        state = target.handoff
        if state is not None and state.pulling:
            # The pushed state is authoritative; the cursor walk must
            # not overwrite it with an older snapshot.
            state.written[key] = True

    def maybe_pull(self, target, key: bytes) -> bool:
        """Pull on miss: materialize ``key`` at its new owner from
        the old owner before the request is served (zero-time, counted
        as a double read). Returns True when a copy was installed."""
        old_owner = self.old_owner_of(key)
        if old_owner == target.index:
            return False
        donor = self.cluster.servers[old_owner]
        if not (donor.alive and donor.reachable):
            return False
        record = donor.manager.peek(key)
        if record is None:
            return False
        installed = self._put_record(target.manager, key, record)
        if installed:
            self._registry.counter("double_reads",
                                   server=target.name).inc()
        return installed

    # -- cutover + drain ------------------------------------------------------

    def _publish(self) -> None:
        cluster = self.cluster
        cluster._apply_topology(self.ring_size, self.excluded)
        # Handoff states from *finished* migrations re-point at this
        # one, so their re-push decisions follow the newest view.
        for server in cluster.servers:
            state = server.handoff
            if state is not None and state.migration is not self:
                state.migration = self

    def _drain(self, donors):
        cluster = self.cluster
        sim = cluster.sim
        cfg = self.cfg
        if cluster.raft is not None:
            # The cutover is real only once Raft commits the view;
            # never drop donor data on a wall-clock guess while an
            # election is still deciding.
            poll = max(cfg.migration_interval, 1e-4)
            while not self._committed():
                yield sim.timeout(poll)
        if cfg.drain_delay > 0:
            yield sim.timeout(cfg.drain_delay)
        for donor in donors:
            if not (donor.alive and donor.reachable):
                continue
            manager = donor.manager
            for key in list(manager.table.keys()):
                if self.owner_of(key) != donor.index:
                    manager.discard(key)
        if cluster._migration is self:
            cluster._migration = None

    def _committed(self) -> bool:
        view = self.cluster.raft.view
        if view is None:
            return False
        if getattr(view, "ring_size", 0) != self.ring_size:
            return False
        return not (set(self.excluded) & set(view.alive))


def autoscaler_loop(cluster, policy):
    """Threshold autoscaler: sample the mean worker-queue depth across
    the serving fleet every ``policy.interval`` and add/remove one
    server past the watermarks (one migration at a time, with a
    cooldown between actions). Runs forever; spawned by
    :func:`~repro.core.cluster.build_cluster` when the topology config
    enables autoscaling."""
    sim = cluster.sim
    last_action: Optional[float] = None
    while True:
        yield sim.timeout(policy.interval)
        if cluster.migration is not None:
            continue
        if last_action is not None \
                and sim.now - last_action < policy.cooldown:
            continue
        serving = [i for i in cluster.serving_indices()
                   if cluster.servers[i].alive
                   and cluster.servers[i].reachable]
        if not serving:
            continue
        depth = sum(cluster.servers[i].queue_depth()
                    for i in serving) / len(serving)
        if depth >= policy.high_watermark \
                and len(serving) < policy.max_servers:
            cluster.admin.add_server()
            last_action = sim.now
        elif depth <= policy.low_watermark \
                and len(serving) > policy.min_servers:
            cluster.admin.remove_server(serving[-1])
            last_action = sim.now

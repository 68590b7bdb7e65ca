"""Typed cluster-topology configuration and the online admin facade.

This is the control surface for **elastic scaling**: the knobs that
describe how a cluster changes size while serving live traffic, and the
:class:`ClusterAdmin` facade that drives those changes
(``add_server`` / ``remove_server`` / ``rebalance``) as simulated-time
migrations.  It follows the :class:`~repro.core.cluster.ReplicationConfig`
precedent — one frozen dataclass per concern, and the only spelling of
it: a four-server cluster is
``ClusterSpec(topology=TopologyConfig(initial_servers=4))``.

The actual data movement lives in :mod:`repro.core.migration`; this
module only holds configuration, validation, and the admin entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["AutoscalePolicy", "TopologyConfig", "TopologySnapshot",
           "ClusterAdmin"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Threshold autoscaler driven off the obs gauges.

    A background process samples the mean server worker-queue depth
    every ``interval`` seconds and grows the fleet past
    ``high_watermark`` / shrinks it below ``low_watermark``, bounded by
    ``min_servers``/``max_servers`` with a ``cooldown`` between actions.
    One migration runs at a time — the sampler skips a tick while a
    handoff is in flight.
    """

    #: Mean queued requests per serving server that triggers a grow.
    high_watermark: float = 8.0
    #: Mean queue depth below which the fleet shrinks.
    low_watermark: float = 0.5
    min_servers: int = 1
    max_servers: int = 16
    #: Sampling period (seconds, simulated time).
    interval: float = 2e-3
    #: Minimum spacing between two scaling actions (seconds).
    cooldown: float = 5e-3

    def __post_init__(self):
        if self.min_servers < 1:
            raise ValueError(
                f"min_servers must be >= 1, got {self.min_servers}")
        if self.max_servers < self.min_servers:
            raise ValueError(
                f"max_servers ({self.max_servers}) must be >= "
                f"min_servers ({self.min_servers})")
        if self.low_watermark > self.high_watermark:
            raise ValueError(
                f"low_watermark ({self.low_watermark}) must not exceed "
                f"high_watermark ({self.high_watermark})")


@dataclass(frozen=True)
class TopologyConfig:
    """Every elastic-topology knob in one typed place.

    * ``initial_servers`` — fleet size at build time.
    * ``migration_batch`` / ``migration_interval`` — the transfer
      engine's budgeted cursor walk: ``migration_batch`` items are
      copied per burst, then the walker sleeps ``migration_interval``
      simulated seconds so live traffic keeps its share of the fleet.
    * ``drain_delay`` — how long after cutover the old owner keeps the
      moved items before dropping them (covers clients still notifying
      into the new view, whose misses pull from it).
    * ``autoscale`` — optional :class:`AutoscalePolicy`; ``None``
      leaves fleet size entirely manual.
    """

    initial_servers: int = 1
    migration_batch: int = 32
    migration_interval: float = 100e-6
    drain_delay: float = 1e-3
    autoscale: Optional[AutoscalePolicy] = None

    def __post_init__(self):
        if self.initial_servers < 1:
            raise ValueError(
                f"initial_servers must be >= 1, got {self.initial_servers}")
        if self.migration_batch < 1:
            raise ValueError(
                f"migration_batch must be >= 1, got {self.migration_batch}")
        if self.migration_interval < 0 or self.drain_delay < 0:
            raise ValueError("migration timings must be >= 0")


@dataclass(frozen=True)
class TopologySnapshot:
    """Point-in-time view of the serving topology (``admin.topology()``)."""

    #: Monotonic view epoch the clients converge to.
    epoch: int
    #: Hash-ring size (total server slots, including excluded ones).
    ring_size: int
    #: Indices currently serving (ring minus admin exclusions).
    serving: Tuple[int, ...]
    #: Indices administratively removed from the ring.
    excluded: Tuple[int, ...]
    #: Keyspace share per server index (sums to 1 over ``serving``).
    ownership: Tuple[float, ...]
    #: Items resident per server index (RAM + SSD).
    items: Tuple[int, ...]
    #: True while a migration window is open.
    migrating: bool

    def describe(self) -> str:
        lines = [f"epoch {self.epoch}  ring_size {self.ring_size}  "
                 f"serving {len(self.serving)}"
                 + ("  [migrating]" if self.migrating else "")]
        for idx in range(self.ring_size):
            state = "serving" if idx in self.serving else "excluded"
            lines.append(
                f"  server{idx}: {state:8s}  "
                f"ownership {self.ownership[idx] * 100:6.2f}%  "
                f"items {self.items[idx]}")
        return "\n".join(lines)


class ClusterAdmin:
    """Online topology operations on a live cluster.

    Every mutating call validates, starts an online migration (a
    simulated-time process: epoch-bumped view publish, pull on miss,
    budgeted background copy, drain), and returns the migration's
    process event so callers can ``yield`` / ``sim.run(until=...)`` on
    completion.  One migration runs at a time; a second call while one
    is in flight raises ``RuntimeError``.

    Elastic operations require replication factor 1: with R > 1 the
    replica placement would have to migrate too, which the transfer
    engine does not model yet.
    """

    def __init__(self, cluster):
        self._cluster = cluster

    # -- queries -------------------------------------------------------------

    def topology(self) -> TopologySnapshot:
        cluster = self._cluster
        serving = cluster.serving_indices()
        router = cluster._client_router()
        ownership = router.ownership(cluster.topology_alive())
        return TopologySnapshot(
            epoch=cluster.view_epoch,
            ring_size=len(cluster.servers),
            serving=tuple(serving),
            excluded=tuple(sorted(cluster._excluded)),
            ownership=tuple(ownership),
            items=tuple(len(s.manager.table) for s in cluster.servers),
            migrating=cluster.migration is not None)

    # -- mutations -----------------------------------------------------------

    def add_server(self):
        """Grow the serving fleet by one server and migrate its share of
        the keyspace to it online.  Re-includes the lowest previously
        removed index (after wiping its stale data) when one exists,
        otherwise appends a fresh server wired to every client.  Returns
        the migration process event."""
        cluster = self._cluster
        self._check_elastic_ok()
        excluded = sorted(cluster._excluded)
        if excluded:
            index = excluded[0]
            server = cluster.servers[index]
            # Its contents predate the removal and would serve stale
            # values the moment it owns keys again.
            server.manager.wipe()
            new_excluded = [i for i in excluded if i != index]
        else:
            cluster._spawn_server(len(cluster.servers))
            new_excluded = excluded
        return self._start_migration(ring_size=len(cluster.servers),
                                     excluded=new_excluded)

    def remove_server(self, server, drain: bool = True):
        """Remove one server from the serving set.  ``server`` is an
        index or a ``"serverN"`` name.  The view flips first; with
        ``drain`` (default) the new owners pull the removed server's
        items on first touch while its table is streamed to them in the
        background; without, nothing is copied and its data is dropped
        (misses repopulate).  Returns the migration process event."""
        cluster = self._cluster
        self._check_elastic_ok()
        index = self._resolve(server)
        if index in cluster._excluded:
            raise ValueError(f"server {index} is already removed")
        serving = cluster.serving_indices()
        if len(serving) <= 1:
            raise ValueError("cannot remove the last serving server")
        excluded = sorted(cluster._excluded) + [index]
        return self._start_migration(ring_size=len(cluster.servers),
                                     excluded=excluded, copy=drain)

    def rebalance(self):
        """Re-run the transfer engine against the current view: any item
        resident on a server that no longer owns it is streamed to its
        owner.  Useful after an undrained removal or a healed fault.
        Returns the migration process event."""
        cluster = self._cluster
        self._check_elastic_ok()
        return self._start_migration(ring_size=len(cluster.servers),
                                     excluded=sorted(cluster._excluded),
                                     force_all_donors=True)

    # -- helpers -------------------------------------------------------------

    def _resolve(self, server) -> int:
        cluster = self._cluster
        if isinstance(server, str):
            for idx, srv in enumerate(cluster.servers):
                if srv.name == server:
                    return idx
            raise ValueError(f"unknown server {server!r}")
        index = int(server)
        if not 0 <= index < len(cluster.servers):
            raise ValueError(f"server index {index} out of range")
        return index

    def _check_elastic_ok(self):
        cluster = self._cluster
        if cluster.replication_factor > 1:
            raise ValueError(
                "elastic topology changes require replication factor 1; "
                f"got {cluster.replication_factor}")
        if cluster.migration is not None:
            raise RuntimeError("a migration is already in progress")

    def _start_migration(self, *, ring_size: int, excluded: List[int],
                         copy: bool = True, force_all_donors: bool = False):
        from repro.core.migration import Migration
        migration = Migration(self._cluster, ring_size=ring_size,
                              excluded=excluded, copy=copy,
                              force_all_donors=force_all_donors)
        return migration.start()

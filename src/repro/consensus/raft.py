"""A minimal Raft group owning cluster membership and ring epochs.

One :class:`RaftNode` is colocated with every data server; the group
talks over a full IPoIB mesh between the server nodes (consensus is
control-plane traffic — it never rides the client data connections).
The replicated log carries exactly one kind of entry: a :class:`View`
``(epoch, alive)``. The leader watches peer liveness through its
heartbeat acks, proposes a new view whenever the alive set changes, and
publishes each *committed* view to subscribed clients — so a
``FaultPlan`` crash or partition produces a real, fenced, epoch-stamped
view change instead of client-local ejection guessing.

Everything is ordinary DES machinery: elections run on randomized
timeouts from a per-node seeded RNG, messages are small frames on the
existing net fabric, and a node whose colocated data server is crashed
or partitioned simply drops everything it receives and sends nothing
(the Raft state itself is modeled as persistent — it survives a
``crash`` even with ``wipe=True``, the way a real implementation fsyncs
``(term, votedFor, log)``).

Failure model notes
-------------------

* **Term fencing.** Every message carries the sender's term; a stale
  leader or candidate steps down the moment it sees a higher term, so
  two leaders can never both commit (their log entries are fenced by
  term at the AppendEntries consistency check).
* **Election restriction.** A vote is granted only to candidates whose
  log is at least as up-to-date, so committed views survive leader
  crashes.
* **New-leader view.** A freshly elected leader immediately appends a
  view of its own term (epoch bumped, its current liveness assessment).
  This both makes the election observable (the epoch gauge moves) and
  gives the leader a current-term entry through which earlier entries
  commit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.net.transport import connect_ipoib

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: Control-message wire sizes (bytes): tiny fixed headers, plus a few
#: words per log entry carried by AppendEntries.
_MSG_BYTES = 48
_ENTRY_BYTES = 24


@dataclass(frozen=True)
class View:
    """One committed membership view: the ring epoch and who is in.

    ``ring_size`` is the hash-ring slot count the view routes over —
    it grows when elastic scaling appends servers (0 in pre-elastic
    views: clients treat that as "ring unchanged").
    """

    epoch: int
    alive: FrozenSet[int]
    ring_size: int = 0


@dataclass(frozen=True, slots=True)
class _Entry:
    term: int
    view: View


@dataclass(frozen=True, slots=True)
class _RequestVote:
    term: int
    candidate: int
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True, slots=True)
class _VoteReply:
    term: int
    granted: bool
    voter: int


@dataclass(frozen=True, slots=True)
class _AppendEntries:
    term: int
    leader: int
    prev_index: int
    prev_term: int
    entries: tuple  # of _Entry
    commit: int


@dataclass(frozen=True, slots=True)
class _AppendReply:
    term: int
    ok: bool
    follower: int
    match_index: int


class RaftNode:
    """One consensus participant, colocated with a data server."""

    def __init__(self, group: "RaftGroup", index: int, server,
                 endpoints: Dict[int, object]):
        self.group = group
        self.sim = group.sim
        self.index = index
        self.server = server
        self.endpoints = endpoints
        # Deterministic per-node randomness for election timeouts only.
        self.rng = random.Random((group.seed << 8) ^ (index * 0x9E3779B1))
        # Persistent state (modeled as fsynced; survives crash+wipe).
        self.term = 0
        self.voted_for: Optional[int] = None
        self.log: List[_Entry] = [
            _Entry(0, View(0, group.everyone, len(group.everyone)))]
        # Volatile state.
        self.role = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.applied_view: View = self.log[0].view
        self._votes: set = set()
        self._last_heartbeat = 0.0
        self._next_index: Dict[int, int] = {}
        self._match_index: Dict[int, int] = {}
        self._last_ack: Dict[int, float] = {}
        obs = group.obs
        self._m_elections = obs.counter("raft_elections", node=str(index))
        obs.gauge("raft_term", fn=lambda: float(self.term),
                  node=str(index))
        self.sim.spawn(self._ticker(), name=f"raft-tick-{index}")
        for ep in endpoints.values():
            ep.receiver = self._receive

    # -- liveness (piggybacks on the colocated data server) ----------------

    def live(self) -> bool:
        return self.server.alive and self.server.reachable

    # -- wiring ------------------------------------------------------------

    def _send(self, peer: int, msg, nbytes: int = _MSG_BYTES) -> None:
        if not self.live():
            return  # crashed/partitioned node sends nothing
        self.endpoints[peer].send(msg, nbytes)

    def _broadcast(self, msg, nbytes: int = _MSG_BYTES) -> None:
        for peer in self.endpoints:
            self._send(peer, msg, nbytes)

    def _receive(self, delivery) -> None:
        """Every peer endpoint's receiver: a message is handled as it
        is delivered."""
        if self.live():  # a crashed/partitioned node drops everything
            self._dispatch(delivery.payload)

    # -- timers ------------------------------------------------------------

    def _ticker(self):
        group = self.group
        while True:
            if not self.live():
                # Stay quiet; keep the election timer fresh so a healed
                # node does not instantly storm an election.
                yield self.sim.timeout(group.heartbeat_interval)
                self._last_heartbeat = self.sim.now
                continue
            if self.role == LEADER:
                self._broadcast_append()
                self._check_peer_liveness()
                yield self.sim.timeout(group.heartbeat_interval)
                continue
            start = self.sim.now
            yield self.sim.timeout(
                self.rng.uniform(*group.election_timeout))
            if not self.live() or self.role == LEADER:
                continue
            if self._last_heartbeat >= start:
                continue  # the leader (or a vote grant) reached us
            self._start_election()

    # -- elections ---------------------------------------------------------

    def _start_election(self) -> None:
        self.term += 1
        self.role = CANDIDATE
        self.voted_for = self.index
        self._votes = {self.index}
        last = len(self.log) - 1
        self._broadcast(_RequestVote(self.term, self.index, last,
                                     self.log[last].term))
        self._maybe_win()

    def _maybe_win(self) -> None:
        if len(self._votes) >= self.group.majority:
            self._become_leader()

    def _become_leader(self) -> None:
        self.role = LEADER
        self._m_elections.inc()
        self.group.elections_total += 1
        now = self.sim.now
        last = len(self.log)
        self._next_index = {p: last for p in self.endpoints}
        self._match_index = {p: 0 for p in self.endpoints}
        self._last_ack = {p: now for p in self.endpoints}
        # Current-term entry: bump the epoch with our liveness view (all
        # peers start presumed alive; the ack watchdog prunes them).
        self._append_view(self._compute_alive(self.group.everyone))
        self._broadcast_append()

    def _step_down(self, term: int) -> None:
        self.term = term
        self.voted_for = None
        self.role = FOLLOWER
        self._votes = set()

    # -- leader duties -----------------------------------------------------

    def _append_view(self, alive: FrozenSet[int]) -> None:
        epoch = self.log[-1].view.epoch + 1
        self.log.append(_Entry(
            self.term, View(epoch, alive, self.group.ring_size)))
        self._maybe_commit()  # a single-node group commits instantly

    def _compute_alive(self, acked: FrozenSet[int]) -> FrozenSet[int]:
        """The full serving set: consensus members that acked, plus
        elastically added data-plane servers (not quorum members —
        their liveness is probed directly), minus admin exclusions."""
        group = self.group
        extra = frozenset(s.index for s in group.extra_servers
                          if s.alive and s.reachable)
        return (acked | extra) - group.admin_excluded

    def _check_peer_liveness(self) -> None:
        dead_after = 4.0 * self.group.heartbeat_interval
        now = self.sim.now
        alive = self._compute_alive(frozenset(
            {self.index} | {p for p, at in self._last_ack.items()
                            if now - at <= dead_after}))
        last = self.log[-1].view
        if alive != last.alive or self.group.ring_size != last.ring_size:
            self._append_view(alive)

    def _broadcast_append(self) -> None:
        for peer in self.endpoints:
            nxt = self._next_index[peer]
            entries = tuple(self.log[nxt:])
            self._send(peer, _AppendEntries(
                self.term, self.index, nxt - 1, self.log[nxt - 1].term,
                entries, self.commit_index),
                _MSG_BYTES + _ENTRY_BYTES * len(entries))

    def _maybe_commit(self) -> None:
        for n in range(len(self.log) - 1, self.commit_index, -1):
            if self.log[n].term != self.term:
                break  # only current-term entries commit by counting
            replicas = 1 + sum(1 for m in self._match_index.values()
                               if m >= n)
            if replicas >= self.group.majority:
                self.commit_index = n
                break
        self._apply()

    def _apply(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            view = self.log[self.last_applied].view
            if view.epoch > self.applied_view.epoch:
                self.applied_view = view
                if self.role == LEADER:
                    self.group.publish(view)

    # -- message handling --------------------------------------------------

    def _dispatch(self, msg) -> None:
        if msg.term > self.term:
            self._step_down(msg.term)
        if isinstance(msg, _RequestVote):
            self._on_request_vote(msg)
        elif isinstance(msg, _VoteReply):
            self._on_vote_reply(msg)
        elif isinstance(msg, _AppendEntries):
            self._on_append(msg)
        elif isinstance(msg, _AppendReply):
            self._on_append_reply(msg)

    def _on_request_vote(self, msg: _RequestVote) -> None:
        up_to_date = (msg.last_log_term, msg.last_log_index) >= \
            (self.log[-1].term, len(self.log) - 1)
        granted = (msg.term == self.term and up_to_date
                   and self.voted_for in (None, msg.candidate))
        if granted:
            self.voted_for = msg.candidate
            self._last_heartbeat = self.sim.now
        self._send(msg.candidate, _VoteReply(self.term, granted, self.index))

    def _on_vote_reply(self, msg: _VoteReply) -> None:
        if (self.role == CANDIDATE and msg.term == self.term
                and msg.granted):
            self._votes.add(msg.voter)
            self._maybe_win()

    def _on_append(self, msg: _AppendEntries) -> None:
        if msg.term < self.term:
            self._send(msg.leader,
                       _AppendReply(self.term, False, self.index, 0))
            return
        self.role = FOLLOWER
        self._last_heartbeat = self.sim.now
        if msg.prev_index >= len(self.log) \
                or self.log[msg.prev_index].term != msg.prev_term:
            self._send(msg.leader,
                       _AppendReply(self.term, False, self.index, 0))
            return
        for k, entry in enumerate(msg.entries):
            idx = msg.prev_index + 1 + k
            if idx < len(self.log):
                if self.log[idx].term == entry.term:
                    continue
                del self.log[idx:]  # conflicting suffix: truncate
            self.log.append(entry)
        match = msg.prev_index + len(msg.entries)
        if msg.commit > self.commit_index:
            self.commit_index = min(msg.commit, len(self.log) - 1)
            self._apply()
        self._send(msg.leader,
                   _AppendReply(self.term, True, self.index, match))

    def _on_append_reply(self, msg: _AppendReply) -> None:
        if self.role != LEADER or msg.term != self.term:
            return
        self._last_ack[msg.follower] = self.sim.now
        if msg.ok:
            if msg.match_index > self._match_index[msg.follower]:
                self._match_index[msg.follower] = msg.match_index
            self._next_index[msg.follower] = \
                self._match_index[msg.follower] + 1
            self._maybe_commit()
        else:
            self._next_index[msg.follower] = max(
                1, self._next_index[msg.follower] - 1)


class RaftGroup:
    """The consensus group: one node per server, a full IPoIB mesh, and
    the committed-view publication bus."""

    def __init__(self, sim, servers, fabric_nodes, obs_registry, *,
                 heartbeat_interval: float = 0.5e-3,
                 election_timeout=(1.5e-3, 3.0e-3),
                 view_notify_delay: float = 10e-6,
                 seed: int = 0):
        self.sim = sim
        self.obs = obs_registry
        self.heartbeat_interval = heartbeat_interval
        self.election_timeout = tuple(election_timeout)
        self.view_notify_delay = view_notify_delay
        self.seed = seed
        n = len(servers)
        self.everyone: FrozenSet[int] = frozenset(range(n))
        self.majority = n // 2 + 1
        #: Current hash-ring slot count (grows under elastic scaling).
        self.ring_size = n
        #: Servers added after construction: data-plane members only.
        #: Quorum stays fixed at the founding membership; the leader
        #: probes these directly for liveness instead of via acks.
        self.extra_servers: list = []
        #: Indices an admin removed from the serving set (they may
        #: still vote — exclusion is a routing fact, not a Raft one).
        self.admin_excluded: FrozenSet[int] = frozenset()
        self._subscribers: list = []
        self._published_epoch = 0
        #: Leader elections won across the group (obs-independent).
        self.elections_total = 0
        # Full control-plane mesh between the server nodes.
        endpoints: List[Dict[int, object]] = [dict() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                ep_i, ep_j = connect_ipoib(sim, fabric_nodes[i],
                                           fabric_nodes[j])
                endpoints[i][j] = ep_i
                endpoints[j][i] = ep_j
        self.nodes = [RaftNode(self, i, servers[i], endpoints[i])
                      for i in range(n)]
        obs_registry.gauge(
            "raft_view_epoch", fn=lambda: float(self.view.epoch))

    # -- read side ---------------------------------------------------------

    @property
    def leader_index(self) -> Optional[int]:
        """The live leader with the highest term, if any."""
        best = None
        for node in self.nodes:
            if node.role == LEADER and node.live():
                if best is None or node.term > best.term:
                    best = node
        return best.index if best is not None else None

    @property
    def view(self) -> View:
        """The most recent committed view anywhere in the group."""
        best = self.nodes[0].applied_view
        for node in self.nodes[1:]:
            if node.applied_view.epoch > best.epoch:
                best = node.applied_view
        return best

    def elections(self) -> int:
        """Total leader elections won across the group."""
        return self.elections_total

    # -- elastic topology ---------------------------------------------------

    def add_data_server(self, server) -> None:
        """Register an elastically added server as a data-plane-only
        member: it appears in committed views (when live and not
        excluded) but never votes or holds log state."""
        self.extra_servers.append(server)

    def propose_topology(self, ring_size: int, excluded) -> None:
        """Admin intent: route over ``ring_size`` slots with
        ``excluded`` out of the serving set. Takes effect through the
        normal commit path — the current leader appends a view now; if
        an election is in flight, the next leader's liveness tick picks
        the change up."""
        self.ring_size = ring_size
        self.admin_excluded = frozenset(excluded)
        idx = self.leader_index
        if idx is not None:
            node = self.nodes[idx]
            node._check_peer_liveness()
            node._broadcast_append()

    # -- publication -------------------------------------------------------

    def subscribe(self, callback) -> None:
        """Register ``callback(epoch, alive, ring_size)`` for committed
        views."""
        self._subscribers.append(callback)

    def publish(self, view: View) -> None:
        if view.epoch <= self._published_epoch:
            return
        self._published_epoch = view.epoch
        for callback in self._subscribers:
            self.sim.spawn(self._notify(callback, view),
                           name=f"raft-notify-e{view.epoch}")

    def _notify(self, callback, view: View):
        yield self.sim.timeout(self.view_notify_delay)
        callback(view.epoch, view.alive, view.ring_size)

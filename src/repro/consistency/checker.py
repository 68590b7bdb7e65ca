"""Per-key linearizability checking over client-observed histories.

Two passes, both per key:

**Invariant pass** (cheap, always on) — token-algebra rules that need
no search. CAS tokens are per-server monotonic write identifiers, so:

* *attribution*: a ``HIT`` carrying token *c* on server *s* must name an
  apply of the *same key* (token/key mismatches and value-length
  mismatches are corruption); tokens with no recorded apply (lost
  responses of possibly-applied writes, at-least-once retry duplicates,
  anti-entropy resync) are counted, not flagged.
* *stale read* — a read must not observe token *c* on *s* when a
  larger-token apply on *(s, key)* completed before the read was issued.
* *no resurrection* — once absence was observed on *(s, key)* (acked
  DELETE, delete->NOT_FOUND, or a MISS), no earlier-applied token may
  ever be observed there again (re-stores draw fresh tokens).
* *monotonic reads* — non-overlapping reads on *(s, key)* observe
  non-decreasing tokens.
* *sync visibility* (``write_mode="sync"`` only) — after a sync write
  (set/incr/decr, or delete) acked, a read issued later on any server
  the write's replica sub-request **acked** on must not observe an
  older token — regardless of response timing. This is the rule a
  replica-apply-reordered-ahead-of-ack mutant trips.
* *expired read* — a read issued at/after the deadline a set stamped
  on its item must not observe that item's token (stands down per
  server once a touch/gat may have extended the deadline).
* *flush visibility* — after an acked ``flush_all`` whose latest
  possible epoch has passed, reads must not observe tokens applied
  before its earliest possible epoch (``created`` is store time;
  touch/gat never refresh it).

**Wing–Gong pass** (``full=True``) — an exhaustive linearization search
of each (key, server) sub-history against the sequential cache spec of
:mod:`repro.consistency.spec`, with adversarial eviction insertion and
the apply-in-token-order constraint. Events whose effect is
indeterminate (``SERVER_DOWN``/``PENDING`` writes, unattributable
reads, replica-sub conditional failures) are excluded — the invariant
pass carries the conservative rules for those.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.consistency.history import HistoryEvent
from repro.consistency.spec import (
    ABSENT_STATE,
    APPLY_KINDS,
    SpecOp,
    as_state,
    step,
)

__all__ = ["Violation", "ConsistencyReport", "check_history", "check_run"]

_ACKED_WRITE = "STORED"
_ABSENCE_DELETE = ("DELETED", "NOT_FOUND")
_POSSIBLY_APPLIED = ("SERVER_DOWN", "PENDING")
#: Ops that install a fresh CAS token when they ack STORED.
_APPLY_OPS = ("set", "incr", "decr")
#: Ops whose unacknowledged outcome may still have mutated the server.
_MUTATING_OPS = ("set", "delete", "incr", "decr")
#: Token-observing reads.
_READ_OPS = ("get", "gat")


@dataclass(frozen=True)
class Violation:
    """One consistency violation, anchored to a (key, server) pair."""

    kind: str     # stale-read / resurrection / non-monotonic-read /
                  # sync-stale-read / sync-resurrection / expired-read /
                  # flush-stale-read / token-key-mismatch /
                  # value-mismatch / not-linearizable
    key: str
    server: int
    detail: str

    def __str__(self) -> str:
        return (f"[{self.kind}] key={self.key!r} server={self.server}: "
                f"{self.detail}")


@dataclass(frozen=True)
class ConsistencyReport:
    """Immutable outcome of checking one history.

    ``mode`` names the consistency model that was checked:
    ``"linearizable"`` (this module) or ``"eventual"``
    (:mod:`repro.consistency.eventual` — post-quiesce convergence of
    HLC-convergent async replication). Checkers accumulate into a
    mutable :class:`_Builder` and freeze it on return.
    """

    mode: str = "linearizable"
    violations: Tuple[Violation, ...] = ()
    ops_checked: int = 0
    keys_checked: int = 0
    pairs_searched: int = 0
    #: (key, server) pairs whose search exceeded the node budget or the
    #: op cap — invariants still ran for them. Eventual mode anchors
    #: key-level entries to server ``-1``.
    undecided: Tuple[Tuple[str, int], ...] = ()
    #: HIT tokens with no recorded apply (lost acks, retry duplicates,
    #: resync) — permitted, but surfaced.
    unattributed_reads: int = 0
    #: Writes/deletes whose outcome is unknown (SERVER_DOWN / PENDING).
    possibly_applied: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"

    def summary(self) -> str:
        return (f"consistency: {self.verdict} — {self.ops_checked} ops, "
                f"{self.keys_checked} keys, {self.pairs_searched} "
                f"(key,server) searches, {self.unattributed_reads} "
                f"unattributed reads, {self.possibly_applied} "
                f"possibly-applied, {len(self.undecided)} undecided")

    def to_dict(self) -> dict:
        """JSON-ready shape for CI artifacts (stable key set)."""
        return {
            "mode": self.mode,
            "ok": self.ok,
            "verdict": self.verdict,
            "ops_checked": self.ops_checked,
            "keys_checked": self.keys_checked,
            "pairs_searched": self.pairs_searched,
            "unattributed_reads": self.unattributed_reads,
            "possibly_applied": self.possibly_applied,
            "undecided": [list(pair) for pair in self.undecided],
            "violations": [
                {"kind": v.kind, "key": v.key, "server": v.server,
                 "detail": v.detail}
                for v in self.violations],
        }


class _Builder:
    """Mutable accumulator with the frozen report's attribute names, so
    the pass functions write ``report.violations.append(...)`` etc.
    without caring which phase they run in."""

    __slots__ = ("mode", "violations", "ops_checked", "keys_checked",
                 "pairs_searched", "undecided", "unattributed_reads",
                 "possibly_applied")

    def __init__(self, mode: str = "linearizable",
                 ops_checked: int = 0) -> None:
        self.mode = mode
        self.violations: List[Violation] = []
        self.ops_checked = ops_checked
        self.keys_checked = 0
        self.pairs_searched = 0
        self.undecided: List[Tuple[str, int]] = []
        self.unattributed_reads = 0
        self.possibly_applied = 0

    def freeze(self) -> ConsistencyReport:
        return ConsistencyReport(
            mode=self.mode,
            violations=tuple(self.violations),
            ops_checked=self.ops_checked,
            keys_checked=self.keys_checked,
            pairs_searched=self.pairs_searched,
            undecided=tuple(self.undecided),
            unattributed_reads=self.unattributed_reads,
            possibly_applied=self.possibly_applied)


def _label(ev: HistoryEvent) -> str:
    return f"{ev.client}/{ev.req_id}"


def check_history(events: Sequence[HistoryEvent],
                  initial_tokens: Optional[Dict] = None, *,
                  write_mode: str = "sync",
                  faults: bool = False,
                  full: bool = True,
                  wg_budget: int = 200_000,
                  max_wg_ops: int = 48) -> ConsistencyReport:
    """Check one recorded history; returns a :class:`ConsistencyReport`.

    ``initial_tokens`` is ``HistoryRecorder.initial_tokens``:
    ``{(server, key): (cas_token, value_length)}`` for preloaded items.
    ``write_mode`` enables the sync-visibility rule; ``faults=True``
    says the run had a fault plan, so anti-entropy resync may have
    re-stored items invisibly to the history (relaxes presence
    predicates to the UNKNOWN-item spec — see
    :mod:`repro.consistency.spec`); ``full=False`` skips the Wing–Gong
    search (invariants only).
    """
    initial_tokens = initial_tokens or {}
    report = _Builder(ops_checked=len(events))
    lost = _lost_hlc_writes(events)
    if lost:
        events = [ev for ev in events if ev not in lost]

    # -- index ------------------------------------------------------------
    by_key: Dict[str, List[HistoryEvent]] = defaultdict(list)
    #: server -> token -> apply event (tokens are unique per server).
    applies_by_server: Dict[int, Dict[int, HistoryEvent]] = defaultdict(dict)
    #: acked flush_alls per server (key-less; checked against every key).
    flushes_by_server: Dict[int, List[HistoryEvent]] = defaultdict(list)
    for ev in events:
        if ev.op == "stats":
            continue
        if ev.op == "flush":
            if ev.status == "OK" and ev.server >= 0:
                flushes_by_server[ev.server].append(ev)
            continue
        by_key[ev.key].append(ev)
        if (ev.op in _APPLY_OPS and ev.status == _ACKED_WRITE
                and ev.server >= 0):
            applies_by_server[ev.server][ev.cas_token] = ev
        if (ev.op in _MUTATING_OPS
                and ev.status in _POSSIBLY_APPLIED):
            report.possibly_applied += 1

    report.keys_checked = len(by_key)
    for key, evs in by_key.items():
        _check_key(key, evs, initial_tokens, applies_by_server,
                   flushes_by_server, write_mode, report)
        if full:
            # Presence predicates relax to the UNKNOWN-item spec when an
            # invisible re-store was possible for this key: a fault plan
            # (resync) or a possibly-applied write on the key.
            allow_unknown = faults or any(
                ev.op in _MUTATING_OPS
                and ev.status in _POSSIBLY_APPLIED for ev in evs)
            _search_key(key, evs, initial_tokens, applies_by_server,
                        report, wg_budget, max_wg_ops, allow_unknown)
    return report.freeze()


def _lost_hlc_writes(events: Sequence[HistoryEvent]) -> set:
    """HLC-stamped sets that answered STORED without installing
    anything: the server's last-writer-wins merge kept a newer delete
    (the reply carries token 0) or a newer write (the reply carries
    that winner's token, so two recorded sets claim one token and the
    larger stamp installed it).

    Leaving them out of every check is sound. A stamp's physical part
    is the simulated time its op was issued at, so the smaller stamp
    means the losing write was issued no later than the winner was
    issued — hence no later than the winner was applied — and it
    completed after the server had applied the winner. It therefore
    linearizes immediately before the winner, whose effect hides it
    from every later op."""
    lost = set()
    installs: Dict[Tuple[int, int], HistoryEvent] = {}
    for ev in events:
        if (ev.op != "set" or ev.status != _ACKED_WRITE or ev.hlc is None
                or ev.server < 0):
            continue
        if ev.cas_token == 0:
            lost.add(ev)
            continue
        slot = (ev.server, ev.cas_token)
        other = installs.get(slot)
        if other is None:
            installs[slot] = ev
        elif other.hlc < ev.hlc:
            lost.add(other)
            installs[slot] = ev
        else:
            lost.add(ev)
    return lost


# -- invariant pass ---------------------------------------------------------


def _attribute(ev: HistoryEvent, initial_tokens, applies_by_server):
    """Resolve a HIT's token to its apply: ``(kind, apply_t_complete,
    value_length, key, apply_event)`` — kind 'apply', 'initial', or
    None (the event slot is None for 'initial')."""
    apply_ev = applies_by_server.get(ev.server, {}).get(ev.cas_token)
    if apply_ev is not None:
        return ("apply", apply_ev.t_complete, apply_ev.value_length,
                apply_ev.key, apply_ev)
    init = initial_tokens.get((ev.server, ev.key))
    if init is not None and init[0] == ev.cas_token:
        return ("initial", float("-inf"), init[1], ev.key, None)
    return None


def _check_key(key, evs, initial_tokens, applies_by_server,
               flushes_by_server, write_mode, report) -> None:
    viol = report.violations.append
    # per-server event groups for this key
    applies: Dict[int, List[HistoryEvent]] = defaultdict(list)
    hits: Dict[int, List[HistoryEvent]] = defaultdict(list)
    absence: Dict[int, List[HistoryEvent]] = defaultdict(list)
    #: servers where a touch/gat may have extended this key's deadline —
    #: the expired-read rule stands down there (WG still covers it).
    refreshed = set()
    for ev in evs:
        if ev.server < 0:
            continue
        if ev.op in _APPLY_OPS and ev.status == _ACKED_WRITE:
            applies[ev.server].append(ev)
        if ev.op in _READ_OPS and ev.status == "HIT":
            hits[ev.server].append(ev)
        elif ev.op in _READ_OPS and ev.status == "MISS":
            absence[ev.server].append(ev)
        elif ev.op == "delete" and ev.status in _ABSENCE_DELETE:
            absence[ev.server].append(ev)
        elif ev.op in ("incr", "decr") and ev.status == "NOT_FOUND":
            absence[ev.server].append(ev)
        if ((ev.op == "touch" and ev.status == "TOUCHED")
                or (ev.op == "gat" and ev.status == "HIT")):
            refreshed.add(ev.server)

    for server, reads in hits.items():
        server_applies = applies.get(server, ())
        for r in reads:
            attr = _attribute(r, initial_tokens, applies_by_server)
            if attr is None:
                report.unattributed_reads += 1
            else:
                _kind, a_end, a_vlen, a_key, a_ev = attr
                # Expired read: the apply stamped a deadline, the read
                # was issued at/after it, and nothing could have pushed
                # the deadline out. Only sets *unconditionally* install
                # their recorded expiration (counter auto-create may
                # have applied in place instead).
                if (a_ev is not None and a_ev.op == "set"
                        and a_ev.expiration > 0.0
                        and r.t_issue >= a_ev.expiration
                        and server not in refreshed):
                    viol(Violation(
                        "expired-read", key, server,
                        f"read {_label(r)} (issued {r.t_issue:.9f}) "
                        f"observed token {r.cas_token} whose apply "
                        f"{_label(a_ev)} expired at "
                        f"{a_ev.expiration:.9f}"))
                if a_key != r.key:
                    viol(Violation(
                        "token-key-mismatch", key, server,
                        f"read {_label(r)} observed token {r.cas_token} "
                        f"written for key {a_key!r}"))
                elif a_vlen != r.value_length:
                    viol(Violation(
                        "value-mismatch", key, server,
                        f"read {_label(r)} token {r.cas_token}: "
                        f"value_length {r.value_length} != stored {a_vlen}"))
                # no resurrection after observed absence
                for b in absence.get(server, ()):
                    if a_end < b.t_issue and 0 <= b.t_complete < r.t_issue:
                        viol(Violation(
                            "resurrection", key, server,
                            f"read {_label(r)} observed token "
                            f"{r.cas_token} (applied before "
                            f"{b.op}->{b.status} {_label(b)} completed "
                            f"before the read was issued)"))
                        break
            # stale read vs known newer applies on this (server, key)
            for a in server_applies:
                if (a.cas_token > r.cas_token
                        and 0 <= a.t_complete < r.t_issue):
                    viol(Violation(
                        "stale-read", key, server,
                        f"read {_label(r)} (issued {r.t_issue:.9f}) "
                        f"observed token {r.cas_token} but apply "
                        f"{_label(a)} token {a.cas_token} completed "
                        f"earlier at {a.t_complete:.9f}"))
                    break

        # monotonic reads per (server, key)
        done = sorted((r for r in reads if r.t_complete >= 0),
                      key=lambda r: r.t_complete)
        by_issue = sorted(reads, key=lambda r: r.t_issue)
        hi = 0
        max_tok: Optional[Tuple[int, HistoryEvent]] = None
        for r in by_issue:
            while hi < len(done) and done[hi].t_complete < r.t_issue:
                if max_tok is None or done[hi].cas_token > max_tok[0]:
                    max_tok = (done[hi].cas_token, done[hi])
                hi += 1
            if max_tok is not None and r.cas_token < max_tok[0]:
                viol(Violation(
                    "non-monotonic-read", key, server,
                    f"read {_label(r)} observed token {r.cas_token} "
                    f"after {_label(max_tok[1])} observed "
                    f"{max_tok[0]}"))

    # Flush visibility: an acked flush_all invalidates, at its epoch,
    # every item created before the epoch. The epoch lies in
    # [t_issue+delay, t_complete+delay]; an apply completed before the
    # *earliest* possible epoch stored its item before it, so a read
    # issued after the *latest* possible epoch must not observe that
    # token. Touch/gat never refresh ``created``, so no stand-down.
    for server, fls in flushes_by_server.items():
        reads = hits.get(server)
        if not reads:
            continue
        for f in fls:
            if f.t_complete < 0:
                continue
            min_f = f.t_issue + f.expiration
            max_f = f.t_complete + f.expiration
            for r in reads:
                attr = _attribute(r, initial_tokens, applies_by_server)
                if attr is None:
                    continue
                if attr[1] < min_f and r.t_issue > max_f:
                    viol(Violation(
                        "flush-stale-read", key, server,
                        f"read {_label(r)} (issued {r.t_issue:.9f}) "
                        f"observed token {r.cas_token} applied before "
                        f"flush {_label(f)} (epoch <= {max_f:.9f})"))

    if write_mode == "sync":
        _check_sync_visibility(key, evs, initial_tokens, applies_by_server,
                               report)


def _check_sync_visibility(key, evs, initial_tokens, applies_by_server,
                           report) -> None:
    """After an acked sync write/delete, reads issued later must see its
    effect on every server whose replica sub-request acked — the
    response timing of the sub itself does not matter (a correct sync
    client acked *after* them; a broken one is what we're hunting)."""
    subs_by_parent: Dict[int, List[HistoryEvent]] = defaultdict(list)
    for ev in evs:
        if ev.api == "replica" and ev.parent >= 0:
            subs_by_parent[ev.parent].append(ev)
    reads = [ev for ev in evs
             if ev.op in _READ_OPS and ev.status == "HIT"]
    for w in evs:
        if not w.user or w.t_complete < 0:
            continue
        if w.op in _APPLY_OPS and w.status == _ACKED_WRITE:
            floor: Dict[int, int] = {w.server: w.cas_token}
            for sub in subs_by_parent.get(w.req_id, ()):
                if sub.status == _ACKED_WRITE:
                    floor[sub.server] = sub.cas_token
            for r in reads:
                tok = floor.get(r.server)
                if (tok is not None and r.t_issue > w.t_complete
                        and r.cas_token < tok):
                    report.violations.append(Violation(
                        "sync-stale-read", key, r.server,
                        f"read {_label(r)} issued after sync write "
                        f"{_label(w)} acked, but observed token "
                        f"{r.cas_token} < its apply {tok} on this "
                        f"server"))
        elif w.op == "delete" and w.status in _ABSENCE_DELETE:
            removed = {w.server}
            for sub in subs_by_parent.get(w.req_id, ()):
                if sub.status in _ABSENCE_DELETE:
                    removed.add(sub.server)
            for r in reads:
                if r.server not in removed or r.t_issue <= w.t_complete:
                    continue
                attr = _attribute(r, initial_tokens, applies_by_server)
                if attr is not None and attr[1] < w.t_issue:
                    report.violations.append(Violation(
                        "sync-resurrection", key, r.server,
                        f"read {_label(r)} issued after sync delete "
                        f"{_label(w)} acked, but observed token "
                        f"{r.cas_token} applied before the delete"))


# -- Wing–Gong search per (key, server) -------------------------------------


def _spec_op(ev: HistoryEvent, initial_tokens,
             applies_by_server) -> Optional[SpecOp]:
    """Resolve one event to a SpecOp, or None when indeterminate."""
    st = ev.status
    if st in _POSSIBLY_APPLIED:
        return None
    mk = lambda kind, token=0, expire=0.0: SpecOp(  # noqa: E731
        kind, token, ev.t_issue, ev.t_complete, _label(ev), expire)
    if ev.op == "set":
        if st == _ACKED_WRITE:
            return mk("apply", ev.cas_token, ev.expiration)
        if ev.api == "replica":
            return None  # conditional replica outcome: mode unknown
        if st == "NOT_STORED":
            if ev.api == "add":
                return mk("add_fail")
            if ev.api == "replace":
                return mk("replace_fail")
            return None
        if ev.api == "cas":
            if st == "EXISTS":
                return mk("cas_exists")
            if st == "NOT_FOUND":
                return mk("cas_nf")
        return None
    if ev.op in _READ_OPS:
        if st == "HIT":
            if _attribute(ev, initial_tokens, applies_by_server) is None:
                return None  # unattributable token: unconstrained
            if ev.op == "gat":
                return mk("gat_hit", ev.cas_token, ev.expiration)
            return mk("hit", ev.cas_token)
        if st == "MISS":
            return mk("miss")
        return None
    if ev.op == "delete":
        if st == "DELETED":
            return mk("delete")
        if st == "NOT_FOUND":
            return mk("delete_nf")
        return None
    if ev.op == "touch":
        if st == "TOUCHED":
            return mk("touch_ok", 0, ev.expiration)
        if st == "NOT_FOUND":
            return mk("touch_nf")
        return None
    if ev.op in ("incr", "decr"):
        # Counter semantics are unconditional (replica subs re-apply the
        # same arithmetic), so replica outcomes map like user ops.
        if st == _ACKED_WRITE:
            if ev.auto_create:
                return mk("counter_create", ev.cas_token, ev.expiration)
            return mk("counter_apply", ev.cas_token)
        if st == "NOT_FOUND":
            return mk("counter_nf")
        if st == "NOT_NUMERIC":
            return mk("counter_fail")
        return None
    return None


def _search_key(key, evs, initial_tokens, applies_by_server, report,
                budget, max_ops, allow_unknown) -> None:
    per_server: Dict[int, List[SpecOp]] = defaultdict(list)
    for ev in evs:
        if ev.server < 0:
            continue
        op = _spec_op(ev, initial_tokens, applies_by_server)
        if op is not None:
            per_server[ev.server].append(op)
    for server, ops in per_server.items():
        if not ops:
            continue
        report.pairs_searched += 1
        if len(ops) > max_ops:
            report.undecided.append((key, server))
            continue
        init = initial_tokens.get((server, key))
        init_state = as_state(init[0]) if init is not None else ABSENT_STATE
        verdict = _linearize(sorted(
            ops, key=lambda o: (o.t_issue, o.t_complete, o.label)),
            init_state, budget, allow_unknown)
        if verdict == "undecided":
            report.undecided.append((key, server))
        elif verdict == "violation":
            tokened = APPLY_KINDS | {"hit", "gat_hit"}
            trace = ", ".join(
                f"{o.label}:{o.kind}"
                + (f"({o.token})" if o.kind in tokened else "")
                for o in sorted(ops, key=lambda o: o.t_issue))
            report.violations.append(Violation(
                "not-linearizable", key, server,
                f"no linearization of [{trace}] satisfies the "
                f"sequential cache spec"))


def _linearize(ops: List[SpecOp], init_state, budget: int,
               allow_unknown: bool = False) -> str:
    """Wing–Gong search: is there a total order of ``ops`` respecting
    real time (op A before op B when A completed before B was issued)
    and the sequential spec? Applies must additionally linearize in
    token order (the server's counter assigns tokens in apply order).
    Returns 'ok', 'violation', or 'undecided' (budget exhausted)."""
    n = len(ops)
    if n == 0:
        return "ok"
    pred = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and ops[j].t_complete < ops[i].t_issue:
                pred[i] |= 1 << j
    apply_order = sorted((i for i in range(n) if ops[i].kind in APPLY_KINDS),
                         key=lambda i: ops[i].token)
    seen = set()
    nodes = 0
    stack = [((1 << n) - 1, init_state)]
    while stack:
        mask, state = stack.pop()
        if mask == 0:
            return "ok"
        if (mask, state) in seen:
            continue
        seen.add((mask, state))
        nodes += 1
        if nodes > budget:
            return "undecided"
        next_apply = -1
        for i in apply_order:
            if mask >> i & 1:
                next_apply = i
                break
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            if pred[i] & mask:
                continue  # a strictly-earlier op is still unlinearized
            if ops[i].kind in APPLY_KINDS and i != next_apply:
                continue  # applies go in token order
            legal, nxt = step(state, ops[i], allow_unknown)
            if legal:
                stack.append((mask & ~(1 << i), nxt))
    return "violation"


# -- harness convenience ----------------------------------------------------


def check_run(cluster, recorder, *, full: bool = True,
              **kw) -> ConsistencyReport:
    """Finish ``recorder`` and check its history against ``cluster``'s
    configured consistency model: the linearizability checker normally,
    the eventual-convergence checker when the cluster runs
    HLC-convergent async replication (``replication.hlc`` with
    ``write_mode="async"`` — LWW merge only promises convergence, not
    linearizability). Publishes checker counters/timings on the
    cluster's observability registry when enabled."""
    import time

    events = recorder.finish()
    t0 = time.perf_counter()
    rep = cluster.spec.replication
    if rep.hlc and rep.write_mode == "async":
        from repro.consistency.eventual import check_convergence

        report = check_convergence(cluster, events,
                                   initial_tokens=recorder.initial_tokens)
    else:
        report = check_history(events, recorder.initial_tokens,
                               write_mode=rep.write_mode,
                               full=full, **kw)
    elapsed = time.perf_counter() - t0
    if cluster.obs.enabled:
        reg = cluster.obs.registry
        reg.counter("consistency_ops_recorded").inc(len(events))
        reg.counter("consistency_violations").inc(len(report.violations))
        reg.counter("consistency_keys_checked").inc(report.keys_checked)
        reg.counter("consistency_check_seconds").inc(elapsed)
    return report

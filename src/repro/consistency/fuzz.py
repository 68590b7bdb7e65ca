"""Fault-schedule fuzzing: randomized scenarios, checked histories,
seed shrinking, and one-line repros.

A :class:`Scenario` is a **frozen, fully explicit** description of one
fuzz run — every knob the simulation needs, no hidden state — so any
scenario can be reproduced from its CLI flags alone
(:func:`repro_line`). :func:`derive` maps a single integer seed to a
scenario (randomized fault plan × replication × write mode × router ×
TTL / counter op mix); :func:`run_scenario` executes it under a
:class:`~repro.consistency.history.HistoryRecorder` and checks the
history; :func:`shrink` minimizes a failing scenario (drop faults one
at a time, halve the op count, drop to one client) so the printed
``repro check --seed N ...`` line is as small as the bug allows.

Workload: a mixed per-client stream (weighted get/set/add/replace/
cas/delete/touch, blocking and non-blocking with ``wait_any`` windows)
drawn from a per-client ``random.Random`` — deterministic for a fixed
seed. Which scenario each CI seed derives is pinned in
``tests/golden/fuzz_ledger.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.consistency.checker import (ConsistencyReport, Violation,
                                      check_history)
from repro.consistency.eventual import check_convergence
from repro.consistency.history import HistoryEvent, HistoryRecorder, to_jsonl
from repro.core.cluster import ClusterSpec, ReplicationConfig, build_cluster
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.faults import FaultPlan, parse_time
from repro.units import MB
from repro.workloads.keyspace import Keyspace

__all__ = ["Scenario", "FuzzResult", "derive", "derive_eventual",
           "derive_elastic", "run_scenario", "fuzz_seeds", "shrink",
           "repro_line"]


@dataclass(frozen=True)
class Scenario:
    """One fully explicit fuzz run — reproducible from these fields."""

    seed: int
    num_servers: int = 3
    num_clients: int = 2
    ops_per_client: int = 120
    num_keys: int = 24
    value_length: int = 4096
    replication: int = 2
    write_mode: str = "sync"
    router: str = "ketama"
    #: CLI fault specs (``FaultPlan.parse`` format); () = fault-free.
    fault_specs: Tuple[str, ...] = ()
    request_timeout: float = 2e-3
    eject_duration: float = 5e-3
    server_mem_mb: int = 4
    ssd_limit_mb: int = 32
    #: Mix in TTL-bearing ops (set-with-ttl / gat / touch / rare flush).
    ttl_ops: bool = False
    #: Mix in incr/decr (with and without auto-create).
    counter_ops: bool = False
    #: Run the Raft membership group (view-driven client routing).
    consensus: bool = False
    #: Stamp writes with hybrid logical clocks (LWW merge); with
    #: ``write_mode="async"`` this switches the run to the
    #: eventual-convergence checker.
    hlc: bool = False
    #: Elastic resize actions randomized into the run: ``"add@T"``
    #: grows the fleet by one at ``T`` seconds, ``"remove:I@T"`` drains
    #: server ``I`` out. Actions that collide with an in-flight
    #: migration (or an invalid target) are skipped deterministically.
    scale_specs: Tuple[str, ...] = ()

    def to_cli_args(self) -> List[str]:
        """The exact ``repro check`` flags reproducing this scenario."""
        args = ["--seed", str(self.seed),
                "--servers", str(self.num_servers),
                "--clients", str(self.num_clients),
                "--ops", str(self.ops_per_client),
                "--keys", str(self.num_keys),
                "--value-length", str(self.value_length),
                "--replication", str(self.replication),
                "--write-mode", self.write_mode,
                "--router", self.router,
                "--request-timeout", repr(self.request_timeout),
                "--eject-duration", repr(self.eject_duration),
                "--server-mem-mb", str(self.server_mem_mb),
                "--ssd-limit-mb", str(self.ssd_limit_mb)]
        if self.ttl_ops:
            args.append("--ttl-ops")
        if self.counter_ops:
            args.append("--counter-ops")
        if self.consensus:
            args.append("--consensus")
        if self.hlc:
            args.append("--hlc")
        for spec in self.fault_specs:
            args += ["--fault", spec]
        for spec in self.scale_specs:
            args += ["--scale-op", spec]
        return args


def repro_line(scn: Scenario) -> str:
    """The one-line CLI reproduction of ``scn``."""
    import shlex
    return "repro check " + " ".join(
        shlex.quote(a) for a in scn.to_cli_args())


def derive(seed: int) -> Scenario:
    """Deterministically expand one fuzz seed into a scenario."""
    rng = random.Random(seed ^ 0x5EED_C0DE)
    num_servers = 3
    num_faults = rng.choice((0, 1, 1, 2))
    fault_specs: Tuple[str, ...] = ()
    if num_faults:
        plan = FaultPlan.random(seed ^ 0x000F_A017, num_servers,
                                horizon=0.02, num_faults=num_faults)
        fault_specs = tuple(plan.to_specs())
    return Scenario(
        seed=seed,
        num_servers=num_servers,
        num_clients=rng.choice((1, 2)),
        ops_per_client=rng.choice((80, 120)),
        value_length=rng.choice((4096, 16384)),
        replication=rng.choice((1, 2, 3)),
        write_mode=rng.choice(("sync", "async")),
        router=rng.choice(("modulo", "ketama")),
        fault_specs=fault_specs,
        # Appended draws — keep them last so earlier fields stay stable
        # across seeds recorded before these knobs existed.
        ttl_ops=rng.random() < 0.5,
        counter_ops=rng.random() < 0.5,
    )


def derive_eventual(seed: int) -> Scenario:
    """Expand one fuzz seed into a partition-heavy **eventual-mode**
    scenario: async writes with HLC stamps, R ∈ {2, 3}, and a healing
    partition plan (every partition heals, one server at a time, so
    anti-entropy resync always runs and the post-quiesce convergence
    check is meaningful).

    A separate derivation keeps the existing :func:`derive` grid
    byte-stable — adding draws there would silently reshuffle every
    recorded seed. Crash faults are excluded: a crash wipes RAM, and
    while tombstones are modeled as journaled alongside the consensus
    log, data loss plus at-least-once retries makes "which writes must
    survive" ambiguous — partitions keep the band's oracle exact.
    """
    rng = random.Random(seed ^ 0x0E7E_A711)
    num_servers = 3
    specs = []
    t = 0.002 + rng.random() * 0.002
    for _ in range(rng.choice((1, 1, 2))):
        duration = 0.002 + rng.random() * 0.003
        specs.append(f"partition:server={rng.randrange(num_servers)},"
                     f"at={t:.6f},duration={duration:.6f}")
        # Non-overlapping with slack: the previous heal's resync settles
        # before the next partition opens.
        t += duration + 0.002 + rng.random() * 0.002
    return Scenario(
        seed=seed,
        num_servers=num_servers,
        num_clients=rng.choice((1, 2)),
        ops_per_client=rng.choice((80, 120)),
        value_length=rng.choice((1024, 4096)),
        replication=rng.choice((2, 3)),
        write_mode="async",
        router=rng.choice(("modulo", "ketama")),
        fault_specs=tuple(specs),
        ttl_ops=False,
        counter_ops=False,
        consensus=bool(rng.getrandbits(1)),
        hlc=True,
    )


def derive_elastic(seed: int) -> Scenario:
    """Expand one fuzz seed into an **elastic-scaling** scenario: R=1
    sync runs with 1-2 randomized add/remove actions (both routers,
    consensus and HLC coins) and at most one fault riding along —
    migrations racing crashes/partitions is exactly the grid
    hand-written tests cannot cover.

    A separate derivation keeps :func:`derive` and
    :func:`derive_eventual` byte-stable (appending draws there would
    reshuffle every recorded seed)."""
    rng = random.Random(seed ^ 0x0E1A_57EC)
    num_servers = rng.choice((2, 3))
    specs = []
    t = 0.002 + rng.random() * 0.003
    for _ in range(rng.choice((1, 1, 2))):
        if rng.getrandbits(1):
            specs.append(f"add@{t:.6f}")
        else:
            specs.append(f"remove:{rng.randrange(num_servers)}@{t:.6f}")
        t += 0.004 + rng.random() * 0.004
    fault_specs: Tuple[str, ...] = ()
    if rng.random() < 0.4:
        plan = FaultPlan.random(seed ^ 0x000F_A017, num_servers,
                                horizon=0.02, num_faults=1)
        fault_specs = tuple(plan.to_specs())
    return Scenario(
        seed=seed,
        num_servers=num_servers,
        num_clients=rng.choice((1, 2)),
        ops_per_client=rng.choice((80, 120)),
        value_length=rng.choice((1024, 4096)),
        replication=1,
        write_mode="sync",
        router=rng.choice(("modulo", "ketama")),
        fault_specs=fault_specs,
        ttl_ops=False,
        counter_ops=rng.random() < 0.3,
        consensus=bool(rng.getrandbits(1)),
        hlc=bool(rng.getrandbits(1)),
        scale_specs=tuple(specs),
    )


def _parse_scale_spec(spec: str) -> Tuple[str, Optional[int], float]:
    """``"add@T"`` / ``"remove:I@T"`` / ``"remove@T"`` (highest serving
    index) -> (action, index, at)."""
    action, sep, at_text = spec.partition("@")
    if not sep:
        raise ValueError(f"scale spec {spec!r} needs '@<time>'")
    at = parse_time(at_text)
    if action == "add":
        return "add", None, at
    if action == "remove" or action.startswith("remove:"):
        _, _, idx = action.partition(":")
        return "remove", (int(idx) if idx else None), at
    raise ValueError(
        f"scale spec {spec!r}: action must be 'add' or 'remove[:idx]'")


# -- workload driver --------------------------------------------------------


def _drive(client, scn: Scenario, rng: random.Random, keyspace: Keyspace):
    """Mixed blocking + non-blocking stream with ``wait_any`` windows.

    Weights: get 40% (half non-blocking), set 25% (half non-blocking),
    add 5%, replace 5%, get+cas 10%, delete 10%, touch 5%. When
    ``counter_ops``/``ttl_ops`` are on, carve-outs at the front of the
    draw route ~10% to incr/decr and ~12% to TTL-bearing ops
    (set-with-ttl, gat, touch-with-short-ttl, the odd flush_all) —
    short deadlines are chosen to straddle the run's time scale so
    expiry races actually happen.
    """
    window: list = []
    for _ in range(scn.ops_per_client):
        key = keyspace.key(rng.randrange(scn.num_keys))
        draw = rng.random()
        if scn.counter_ops and draw < 0.10:
            delta = rng.randrange(1, 5)
            initial = 0 if rng.getrandbits(1) else None
            if rng.getrandbits(1):
                yield from client.incr(key, delta, initial=initial)
            else:
                yield from client.decr(key, delta, initial=initial)
        elif scn.ttl_ops and draw < 0.22:
            deadline = client.now + rng.choice((0.0005, 0.002, 0.01))
            ttl_draw = rng.random()
            if ttl_draw < 0.45:
                yield from client.set(key, scn.value_length,
                                      expiration=deadline)
            elif ttl_draw < 0.70:
                yield from client.gat(key, deadline)
            elif ttl_draw < 0.95:
                yield from client.touch(key, deadline)
            else:
                yield from client.flush_all(rng.choice((0.0, 0.001)))
        elif draw < 0.40:
            if rng.random() < 0.5:
                req = yield from client.iget(key)
                window.append(req)
            else:
                yield from client.get(key)
        elif draw < 0.65:
            if rng.random() < 0.5:
                req = yield from client.iset(key, scn.value_length)
                window.append(req)
            else:
                yield from client.set(key, scn.value_length)
        elif draw < 0.70:
            yield from client.add(key, scn.value_length)
        elif draw < 0.75:
            yield from client.replace(key, scn.value_length)
        elif draw < 0.85:
            read = yield from client.get(key)
            res = read.result()
            if res.hit:
                yield from client.cas(key, scn.value_length, res.cas_token)
        elif draw < 0.95:
            yield from client.delete(key)
        else:
            yield from client.touch(key, 60.0)
        if len(window) >= 4:
            _done, remaining = yield from client.wait_any(window)
            window = list(remaining)
    for req in window:
        yield from client.wait(req)
    yield from client.quiesce()


# -- execution --------------------------------------------------------------


def run_scenario(scn: Scenario, *, full: bool = True
                 ) -> Tuple[ConsistencyReport, List[HistoryEvent],
                            HistoryRecorder]:
    """Build, preload, record, drive, quiesce, and check one scenario.

    Eventual-mode scenarios (``hlc`` with async writes) are checked for
    post-quiesce convergence instead of linearizability: after the
    drivers finish, the simulation keeps running past the last fault's
    heal (plus a settling margin for failure detection, view
    propagation, and anti-entropy resync) before the replica states are
    compared. The extension is a bounded ``timeout`` — with consensus
    on, Raft tickers run forever, so draining the event queue would
    never terminate.
    """
    spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=scn.num_servers),
        num_clients=scn.num_clients,
        server_mem=scn.server_mem_mb * MB,
        ssd_limit=scn.ssd_limit_mb * MB,
        request_timeout=scn.request_timeout,
        eject_duration=scn.eject_duration,
        replication=ReplicationConfig(
            factor=min(scn.replication, scn.num_servers),
            write_mode=scn.write_mode,
            router=scn.router,
            consensus=scn.consensus,
            hlc=scn.hlc,
            raft_seed=scn.seed,
        ),
    )
    cluster = build_cluster(H_RDMA_OPT_NONB_I, spec=spec,
                            value_length_for=lambda _k: scn.value_length)
    sim = cluster.sim
    keyspace = Keyspace(scn.num_keys)
    cluster.preload([(keyspace.key(i), scn.value_length)
                     for i in range(scn.num_keys)])
    recorder = HistoryRecorder().attach(cluster)
    plan = FaultPlan.parse(scn.fault_specs) if scn.fault_specs else None
    if plan is not None:
        plan.inject(cluster)

    def _scale_proc(spec_text: str):
        action, index, at = _parse_scale_spec(spec_text)
        yield sim.timeout(at)
        try:
            if action == "add":
                yield cluster.admin.add_server()
            else:
                serving = cluster.serving_indices()
                target = index if index is not None else serving[-1]
                yield cluster.admin.remove_server(target)
        except (ValueError, RuntimeError):
            # Deterministically skip actions that collide with an
            # in-flight migration or name an invalid target (e.g. the
            # last serving server) — the schedule is random.
            return

    for i, spec_text in enumerate(scn.scale_specs):
        sim.spawn(_scale_proc(spec_text), name=f"fuzz-scale-{i}")
    drivers = [
        sim.spawn(_drive(client, scn,
                         random.Random((scn.seed << 8) ^ (index * 0x9E37)),
                         keyspace),
                  name=f"fuzz-{client.name}")
        for index, client in enumerate(cluster.clients)]
    sim.run(until=sim.all_of(drivers))
    if scn.scale_specs:
        # Bounded settle: let an in-flight handoff finish so the run
        # ends on a stable topology (a wedged migration — e.g. Raft
        # quorum lost to a crash — must not hang the fuzzer).
        for _ in range(100):
            if cluster.migration is None:
                break
            sim.run(until=sim.timeout(1e-3))
    eventual = scn.hlc and scn.write_mode == "async"
    if eventual:
        horizon = max((ev.at + (ev.duration or 0.0)
                       for ev in plan.events), default=0.0) if plan else 0.0
        settle = max(0.0, horizon - sim.now) + 0.01
        sim.run(until=sim.timeout(settle))
    events = recorder.finish()
    recorder.detach()
    if eventual:
        report = check_convergence(cluster, events,
                                   initial_tokens=recorder.initial_tokens)
    else:
        report = check_history(events, recorder.initial_tokens,
                               write_mode=cluster.spec.replication.write_mode,
                               faults=bool(scn.fault_specs)
                               or bool(scn.scale_specs), full=full)
    busy = _busy_servers(cluster)
    if busy:
        report = dataclasses.replace(
            report, violations=report.violations + tuple(busy))
    return report, events, recorder


def _busy_servers(cluster) -> List[Violation]:
    """The "every server idle at quiesce" check: once the drivers are
    done, no server may still count a busy worker or hold a SET-value
    rendezvous — a worker parked on work nobody will finish, or a
    value (or a fault's dropped marker for it) whose header never
    came. Either fails the run, each on its own."""
    out = []
    for index, server in enumerate(cluster.servers):
        workers, waits = server._busy_workers, len(server._value_events)
        if workers or waits:
            out.append(Violation(
                "busy-at-quiesce", "", index,
                f"{server.name}: {workers} busy worker(s), {waits} SET-value"
                f" rendezvous left at t={cluster.sim.now:.9f}s"))
    return out


# -- shrinking + batch fuzzing ----------------------------------------------


def shrink(scn: Scenario, *, max_runs: int = 24) -> Scenario:
    """Minimize a failing scenario: drop fault events one at a time,
    halve the op count, then drop to one client — keeping each step
    only if the violation survives. Bounded by ``max_runs`` re-runs."""
    runs = 0

    def still_fails(candidate: Scenario) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        report, _events, _rec = run_scenario(candidate)
        return not report.ok

    current = scn
    progressed = True
    while progressed and runs < max_runs:
        progressed = False
        for i in range(len(current.fault_specs)):
            candidate = dataclasses.replace(
                current, fault_specs=(current.fault_specs[:i]
                                      + current.fault_specs[i + 1:]))
            if still_fails(candidate):
                current = candidate
                progressed = True
                break
        if progressed:
            continue
        for i in range(len(current.scale_specs)):
            candidate = dataclasses.replace(
                current, scale_specs=(current.scale_specs[:i]
                                      + current.scale_specs[i + 1:]))
            if still_fails(candidate):
                current = candidate
                progressed = True
                break
        if progressed:
            continue
        if current.ops_per_client > 10:
            candidate = dataclasses.replace(
                current, ops_per_client=max(10, current.ops_per_client // 2))
            if still_fails(candidate):
                current = candidate
                progressed = True
                continue
        if current.num_clients > 1:
            candidate = dataclasses.replace(current, num_clients=1)
            if still_fails(candidate):
                current = candidate
                progressed = True
    return current


@dataclass
class FuzzResult:
    """Outcome of one fuzzed seed."""

    seed: int
    scenario: Scenario
    report: ConsistencyReport
    #: Minimized failing scenario (violating seeds only).
    shrunk: Optional[Scenario] = None
    #: ``repro check ...`` one-liner (violating seeds only).
    repro: Optional[str] = None
    #: Recorded history (violating seeds, or ``keep_history=True``).
    events: List[HistoryEvent] = field(default_factory=list)
    #: First 16 hex digits of the sha256 of the seed's recorded history
    #: (``to_jsonl``): two trees whose runs differ show different values.
    history: str = ""

    @property
    def ok(self) -> bool:
        return self.report.ok


def fuzz_seeds(seeds: Sequence[int], *, shrink_failures: bool = True,
               keep_history: bool = False,
               progress: Optional[Callable[[FuzzResult], None]] = None,
               derive_fn: Callable[[int], Scenario] = derive
               ) -> List[FuzzResult]:
    """Fuzz every seed; shrink failures and attach their repro lines.

    ``derive_fn`` selects the seed-expansion grid: :func:`derive`
    (default, linearizable-mode) or :func:`derive_eventual`
    (partition-heavy HLC/async convergence band).
    """
    results = []
    for seed in seeds:
        scenario = derive_fn(seed)
        report, events, _recorder = run_scenario(scenario)
        digest = hashlib.sha256(to_jsonl(events).encode()).hexdigest()[:16]
        result = FuzzResult(seed=seed, scenario=scenario, report=report,
                            history=digest)
        if not report.ok:
            result.events = events
            minimized = shrink(scenario) if shrink_failures else scenario
            result.shrunk = minimized
            result.repro = repro_line(minimized)
        elif keep_history:
            result.events = events
        results.append(result)
        if progress is not None:
            progress(result)
    return results

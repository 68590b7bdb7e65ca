"""Deterministic fault injection.

A :class:`FaultPlan` is an ordered set of :class:`FaultEvent`\\ s, each
fired by its own sim-time process at an absolute simulation time.
Injection itself contains no randomness: the same plan against the same
workload seed replays a byte-identical event timeline. Randomness lives
only in :meth:`FaultPlan.random`, which is seeded.

Fault kinds
-----------

``crash``
    Fail-stop: the server drops its queue and in-flight work, stops
    answering, and releases client-visible flow-control resources so no
    process deadlocks. With a ``duration`` the server restarts that many
    seconds later (``wipe`` controls whether its memory contents
    survive — a process restart keeps DRAM, a node loss does not).
``partition``
    Link blackhole: the server silently drops everything it receives and
    sends nothing, but keeps its state. Heals after ``duration``
    (forever when ``None``).
``link_degrade``
    Every NIC on the server's node runs ``factor``× worse (latency
    multiplied, bandwidth divided) for ``duration`` seconds. The
    degrade, and its restoration, applies to messages handed to the NIC
    from that instant on: a NIC fixes a message's on-wire and delivery
    instants at submit, so what is already queued or serializing keeps
    the rate and latency it was submitted under.
``ssd_slowdown``
    The server's block device runs ``factor``× slower for ``duration``
    seconds (firmware GC storms, failing flash). No-op on pure
    in-memory designs.

Event times are seconds **from the moment the plan is injected** (the
harness injects right before the measured drivers start, so ``at=5ms``
means 5 ms into the run regardless of warmup).
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

CRASH = "crash"
PARTITION = "partition"
LINK_DEGRADE = "link_degrade"
SSD_SLOWDOWN = "ssd_slowdown"

KINDS = (CRASH, PARTITION, LINK_DEGRADE, SSD_SLOWDOWN)

#: CLI aliases accepted by :meth:`FaultPlan.parse`.
_ALIASES = {"link": LINK_DEGRADE, "ssd": SSD_SLOWDOWN,
            "blackhole": PARTITION}

_TIME_SUFFIXES = (("ns", 1e-9), ("us", 1e-6), ("ms", 1e-3), ("s", 1.0))


def parse_time(text: str) -> float:
    """Parse ``"13ns"`` / ``"5ms"`` / ``"200us"`` / ``"1.5s"`` /
    ``"0.01"`` (seconds)."""
    text = text.strip()
    for suffix, scale in _TIME_SUFFIXES:
        if text.endswith(suffix):
            return float(text[:-len(suffix)]) * scale
    return float(text)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault against one server."""

    kind: str
    server: int
    #: Seconds after plan injection at which the fault fires.
    at: float
    #: Seconds until the fault is undone (restart / heal / restore);
    #: ``None`` makes it permanent.
    duration: Optional[float] = None
    #: Degradation multiplier (``link_degrade`` / ``ssd_slowdown``).
    factor: float = 10.0
    #: ``crash`` only: lose memory contents on restart.
    wipe: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.factor <= 0:
            raise ValueError(f"factor must be positive, got {self.factor}")

    def to_spec(self) -> str:
        """The CLI spec string this event round-trips through
        :meth:`FaultPlan.parse` (times as plain seconds)."""
        parts = [f"server={self.server}", f"at={self.at!r}"]
        if self.duration is not None:
            parts.append(f"duration={self.duration!r}")
        if self.kind in (LINK_DEGRADE, SSD_SLOWDOWN):
            parts.append(f"factor={self.factor!r}")
        if self.kind == CRASH and not self.wipe:
            parts.append("wipe=false")
        return f"{self.kind}:{','.join(parts)}"


@dataclass
class FaultPlan:
    """A reproducible schedule of faults for one run."""

    events: List[FaultEvent] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "FaultPlan":
        """Build a plan from CLI specs.

        Each spec is ``kind:key=value,...`` — e.g.
        ``crash:server=1,at=5ms,duration=20ms`` or
        ``ssd:server=0,at=1ms,factor=20,duration=10ms``. Times accept
        ``us``/``ms``/``s`` suffixes (plain numbers are seconds).
        """
        events = []
        for spec in specs:
            kind, _, rest = spec.partition(":")
            kind = _ALIASES.get(kind.strip(), kind.strip())
            kwargs: dict = {}
            for pair in filter(None, rest.split(",")):
                key, _, value = pair.partition("=")
                key = key.strip()
                value = value.strip()
                if key in ("at", "duration"):
                    kwargs[key] = parse_time(value)
                elif key == "server":
                    kwargs[key] = int(value)
                elif key == "factor":
                    kwargs[key] = float(value)
                elif key == "wipe":
                    kwargs[key] = value.lower() in ("1", "true", "yes")
                else:
                    raise ValueError(f"unknown fault option {key!r} in "
                                     f"{spec!r}")
            kwargs.setdefault("server", 0)
            kwargs.setdefault("at", 0.0)
            events.append(FaultEvent(kind=kind, **kwargs))
        return cls(events)

    @classmethod
    def random(cls, seed: int, num_servers: int, horizon: float,
               num_faults: int = 1,
               kinds: Sequence[str] = (CRASH, PARTITION, SSD_SLOWDOWN),
               restart_fraction: float = 0.5) -> "FaultPlan":
        """A seeded random plan: ``num_faults`` events drawn uniformly
        over the servers and the first 80% of ``horizon``. The only
        randomness in the fault subsystem lives here; the returned plan
        is a plain value, so replaying it is fully deterministic.
        """
        rng = _random.Random(seed)
        events = []
        for _ in range(num_faults):
            kind = rng.choice(list(kinds))
            at = rng.uniform(0.0, horizon * 0.8)
            duration = None
            if kind in (PARTITION, LINK_DEGRADE, SSD_SLOWDOWN) \
                    or rng.random() < restart_fraction:
                duration = rng.uniform(horizon * 0.05, horizon * 0.4)
            events.append(FaultEvent(
                kind=kind, server=rng.randrange(num_servers), at=at,
                duration=duration, factor=rng.choice((5.0, 10.0, 20.0))))
        events.sort(key=lambda e: (e.at, e.server, e.kind))
        return cls(events)

    def to_specs(self) -> List[str]:
        """CLI spec strings (``--fault`` arguments) reproducing this
        plan exactly via :meth:`parse` — used for fuzzer repro lines."""
        return [event.to_spec() for event in self.events]

    # -- injection ---------------------------------------------------------

    def inject(self, cluster) -> None:
        """Arm every event as a sim process on ``cluster``'s simulator."""
        for event in self.events:
            if not 0 <= event.server < len(cluster.servers):
                raise ValueError(
                    f"fault targets server {event.server} but the cluster "
                    f"has {len(cluster.servers)}")
            cluster.sim.spawn(
                self._fire(cluster, event),
                name=f"fault-{event.kind}-s{event.server}")

    def _fire(self, cluster, event: FaultEvent):
        sim = cluster.sim
        if event.at > 0:
            yield sim.timeout(event.at)
        server = cluster.servers[event.server]
        cluster.obs.registry.counter(
            "faults_injected", kind=event.kind,
            server=str(event.server)).inc()
        if event.kind == CRASH:
            server.crash()
            if event.duration is not None:
                yield sim.timeout(event.duration)
                # Restart + anti-entropy resync from live replicas (the
                # resync is a no-op at replication_factor=1).
                cluster.restart_server(event.server, wipe=event.wipe)
        elif event.kind == PARTITION:
            server.partition()
            if event.duration is not None:
                yield sim.timeout(event.duration)
                server.heal()
                # Catch up on writes that propagated past the blackhole.
                cluster.resync_server(event.server)
        elif event.kind == LINK_DEGRADE:
            node = cluster.server_node(event.server)
            saved = [(nic, nic.params) for nic in node._nics.values()]
            for nic, params in saved:
                nic.params = params.degraded(event.factor)
            if event.duration is not None:
                yield sim.timeout(event.duration)
                for nic, params in saved:
                    nic.params = params
        elif event.kind == SSD_SLOWDOWN:
            device = server.device
            if device is None:
                return  # in-memory design: nothing to slow down
            saved_params = device.params
            device.params = saved_params.degraded(event.factor)
            if event.duration is not None:
                yield sim.timeout(event.duration)
                device.params = saved_params

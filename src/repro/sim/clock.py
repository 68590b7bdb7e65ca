"""A CPU-burst clock, one per actor that spends CPU between real waits.

A request's CPU stages (Fig 2) run between real waits: for the
network, a lock, the device, a receive credit. Each actor — a server
worker, a client's caller, its communication engine, a background miss
fetch — charges its stages to its own clock, which posts no event, and
sleeps the clock only where a later step needs the time to have
passed; one timer then stands for every stage charged since the last
one. A client's caller never sleeps its API overhead: its clock runs
ahead of the simulator, and :attr:`BurstClock.now` is where it acts.

One rule decides whether a burst goes on: a charge starts where the
charged time ends, unless a wait since then took simulated time; then
it opens a new burst at the wake instant. A wait that took no time (a
lock granted on the spot) does not end the burst.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional

from repro.sim.events import Timeout


class BurstClock:
    """One actor's CPU time, charged stage by stage."""

    __slots__ = ("sim", "instant", "start", "pending")

    def __init__(self, sim, instant: Optional[float] = None):
        self.sim = sim
        #: Where the CPU charged so far ends, and where its last stage
        #: starts: the simulator's instant, or ``instant`` if given.
        self.instant = self.start = sim._now if instant is None else instant
        #: Whether anything is charged since the last sleep.
        self.pending = False

    @property
    def now(self) -> float:
        """Where the actor's next step starts: the simulator's instant,
        or later where the CPU charged so far ends."""
        now = self.sim._now
        t = self.instant
        return t if t > now else now

    def charge(self, *costs: float) -> bool:
        """Charge one stage of ``costs``, summed one at a time as
        separate sleeps would be. True when it opens a new burst."""
        now = self.sim._now
        t = self.instant
        opens = now > t
        if opens:
            t = now
        self.start = t
        for cost in costs:
            t += cost
        self.instant = t
        self.pending = True
        return opens

    def sleep(self, *costs: float):
        """The one timer for what is charged since the last sleep, with
        ``costs`` as one more stage: due at the instant, posted where
        the last stage starts (the place its own timer would have had
        among same-instant timers). With nothing charged, an event
        already processed. On every request's path, so :meth:`charge`
        and ``Timeout.at`` are inline (``now <= start <= instant``)."""
        sim = self.sim
        now = sim._now
        if costs:
            t = self.instant
            if now > t:
                t = now
            self.start = t
            for cost in costs:
                t += cost
            self.instant = t
        elif not self.pending:
            return sim.event().succeed()
        self.pending = False
        when = self.instant
        timer = Timeout.__new__(Timeout)
        timer.sim = sim
        timer.callbacks = []
        timer._ok = True
        timer._value = None
        timer.defused = False
        timer.delay = when - now
        if when == now:
            sim._lane.append(timer)
        else:
            heappush(sim._queue, (when, self.start, next(sim._counter), timer))
        return timer

    def bounded(self, event, bound: Optional[float]):
        """What to yield to wait on ``event`` for at most ``bound``
        seconds from :attr:`now` (``None``: ``event`` itself): a deadline
        posted there, which leaves the clock where it is."""
        if bound is None:
            return event
        t = self.now
        return self.sim.any_of([event,
                                Timeout.at(self.sim, t + bound, posted=t)])

    def poll_until(self, instant: float) -> None:
        """The next charge starts no earlier than ``instant``: where
        what the actor polls for lands (an RDMA-written value, a job
        whose caller's overhead ends there)."""
        if instant > self.instant:
            self.instant = instant

    def drop(self) -> None:
        """Forget what is charged and not slept: its request was abandoned."""
        self.instant = self.sim._now
        self.pending = False

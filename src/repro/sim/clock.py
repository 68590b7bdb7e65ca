"""A server worker's CPU-burst clock.

A request's server stages (Fig 2) are CPU costs run between real waits:
for the network, a lock, the device. The worker charges each stage to
its clock, which posts no event, and sleeps the clock only where a
later step needs the time to have passed; one timer then stands for
every stage charged since the last one.

One rule decides whether a burst goes on: a charge starts where the
charged time ends, unless a wait since then took simulated time; then
it opens a new burst at the wake instant. A wait that took no time (a
lock granted on the spot) does not end the burst.
"""

from __future__ import annotations

from heapq import heappush

from repro.sim.events import Timeout


class BurstClock:
    """One server worker's CPU time, charged stage by stage."""

    __slots__ = ("sim", "instant", "start", "pending")

    def __init__(self, sim):
        self.sim = sim
        #: Where the CPU charged so far ends, and where its last stage starts.
        self.instant = self.start = sim._now
        #: Whether anything is charged since the last sleep.
        self.pending = False

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

    def poll_until(self, instant: float) -> None:
        """The next charge starts no earlier than ``instant``, where
        what the worker polls for (an RDMA-written value) lands."""
        if instant > self.instant:
            self.instant = instant

    def drop(self) -> None:
        """Forget what is charged and not slept: its request was abandoned."""
        self.instant = self.sim._now
        self.pending = False

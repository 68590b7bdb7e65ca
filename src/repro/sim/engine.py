"""The simulator core: clock, event queue, and run loop.

Hot-path design (see docs/performance.md): the engine keeps **two**
pending-event structures —

* a binary heap (``heapq``) of ``(time, posted, tiebreak, event)``
  entries for events scheduled at a *future* time, and
* a plain FIFO deque (the **same-time fast lane**) for events scheduled
  at the *current* time — ``Event.succeed``/``fail``, ``Initialize``,
  store/resource dispatch — which dominate real workloads.

Lane appends are a single C-level ``deque.append`` with no tie-break
counter and no heap sift. Every scheduling site applies one rule
inline: an event due at ``now + delay`` takes the lane when that sum
equals ``now`` (delay 0, or a delay so small it vanishes in float
addition) and the heap otherwise, so the heap only ever holds
strictly-future postings. Events therefore still run in
``(time, post-order)`` sequence: a heap entry due at time *t* was
always posted at a sim time strictly before *t*, so it precedes every
lane entry at *t* in global post order; ``step``/``peek``/``run`` drain
due heap entries first, then the lane in FIFO order. ``posted`` is the
clock at the push, so it rises with the tie-break and changes no order
— except for a timer that stands for several back-to-back sleeps
(``Timeout.at(..., posted=)``, and a server worker's
:class:`~repro.sim.clock.BurstClock`): it passes the instant its last
sleep would have started, and sorts among same-instant timers as if it
had been posted there. Nothing in the process environment changes the
engine.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from functools import partial
from itertools import count
from typing import Any, Generator, Iterable, Optional, Union

from repro.obs.tracer import NULL_TRACER
from repro.sim.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Process, Timeout

_heappush = heapq.heappush
_heappop = heapq.heappop

#: The drain loop allocates heavily (events, messages, generator frames)
#: and the hot objects are either cycle-free or die with the run, so the
#: cyclic collector's periodic young-gen scans are nearly pure overhead
#: mid-drain (~15% of wall time on the macro bench). ``run()`` therefore
#: pauses automatic collection while draining and forces a bounded sweep
#: every ``_GC_SWEEP_MASK + 1`` events so multi-million-event runs cannot
#: accumulate unbounded cyclic garbage.
_GC_SWEEP_MASK = (1 << 20) - 1
_gc_collect = gc.collect


def _run_until_observer(_event: Event) -> None:
    """``run(until=ev)`` waits on ``ev`` like any process does: this
    callback is what makes the event observed, so it is queued when it
    triggers and the drain stops exactly where its lane slot falls."""


class Simulator:
    """Owns the virtual clock and the pending-event queue.

    All events and processes are bound to one simulator; mixing objects
    from different simulators raises :class:`SimulationError`.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, float, int, Event]] = []
        self._lane: deque[Event] = deque()
        self._counter = count()
        #: Total events processed: the exact, machine-independent cost
        #: of a run (kvbench's ``sim_events_per_op``; the ``events``
        #: column of the pins in ``tests/golden/``).
        self.events_processed: int = 0
        #: Exceptions from failed events that no handler defused.
        self._unhandled: list[BaseException] = []
        #: Span tracer for process lifetimes; the shared no-op tracer
        #: unless an :class:`~repro.obs.api.Observability` installs one.
        self.tracer = NULL_TRACER
        # ``Event._trigger`` calls this once per triggered event: the
        # raw bound deque.append, no Python frame at all.
        self._schedule_now = self._lane.append
        # Shadow the factory methods with C-level partials: event/timeout
        # creation is once-per-yield in every process, and the delegating
        # Python frame is measurable there. The defs below remain as the
        # documented API surface.
        self.event = partial(Event, self)
        self.timeout = partial(Timeout, self)

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event (trigger it with succeed/fail)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Run a generator as a process; returns its completion event."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        if self._lane:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        queue = self._queue
        if self._lane:
            # Heap entries already due were posted at an earlier sim time
            # (strictly lower global tie-break): they run first.
            if queue and queue[0][0] <= self._now:
                event = _heappop(queue)[3]
            else:
                event = self._lane.popleft()
        elif queue:
            when, _, _, event = _heappop(queue)
            self._now = when
        else:
            raise SimulationError("step() on an empty schedule")
        self.events_processed += 1
        event._process()
        if self._unhandled:
            exc = self._unhandled[0]
            self._unhandled.clear()
            raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run until the schedule drains, a deadline, or an event.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until the clock would pass that time
          (the clock is then set to exactly ``until``).
        * ``until=<Event>`` — run until that event is processed; returns
          its value (raising if it failed).

        The drain loops below repeat :meth:`step`'s pop-and-dispatch
        inline: one method call plus redundant emptiness checks per event
        is the difference between this engine and the hardware ceiling,
        so ``run`` pays the duplication once instead of per event.
        """
        lane = self._lane
        queue = self._queue
        lane_pop = lane.popleft
        unhandled = self._unhandled
        processed = 0
        # Pause the cyclic collector for the duration of the drain (see
        # _GC_SWEEP_MASK above); a bounded manual sweep keeps memory flat
        # on runs long enough to matter.
        gc_paused = gc.isenabled()
        if isinstance(until, Event):
            stop = until
            if stop.sim is not self:
                raise SimulationError("until-event belongs to another simulator")
            if stop.callbacks is not None:
                stop.callbacks.append(_run_until_observer)
            if gc_paused:
                gc.disable()
            try:
                now = self._now  # local clock mirror (see deadline loop)
                while stop.callbacks is not None:  # i.e. not stop.processed
                    if lane:
                        if queue and queue[0][0] <= now:
                            event = _heappop(queue)[3]
                        else:
                            event = lane_pop()
                    elif queue:
                        when, _, _, event = _heappop(queue)
                        now = self._now = when
                    else:
                        raise SimulationError(
                            "schedule drained before until-event triggered"
                            " (deadlock?)"
                        )
                    processed += 1
                    if not (processed & _GC_SWEEP_MASK) and gc_paused:
                        _gc_collect(1)
                    # Inlined Event._process (no subclass overrides it).
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for cb in callbacks:
                            cb(event)
                    if not event._ok and not event.defused:
                        unhandled.append(event._value)
                    if unhandled:
                        exc = unhandled[0]
                        unhandled.clear()
                        raise exc
            finally:
                self.events_processed += processed
                if gc_paused:
                    gc.enable()
            stop.defused = True
            if stop.ok:
                return stop.value
            raise stop.value
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise SimulationError(f"until={deadline} is in the past (now={self._now})")
        if gc_paused:
            gc.disable()
        try:
            # ``now`` mirrors self._now so the (dominant) lane pops read
            # a local instead of an attribute; writes go through both.
            now = self._now
            while True:
                # Lane events are always due at the current time (<= the
                # deadline, since the clock never passes it).
                if lane:
                    if queue and queue[0][0] <= now:
                        event = _heappop(queue)[3]
                    else:
                        event = lane_pop()
                elif queue:
                    # Pop first, push back past-deadline items: the
                    # push-back happens at most once per run() while the
                    # peek-then-pop it replaces double-touched the heap
                    # root on every event.
                    item = _heappop(queue)
                    when = item[0]
                    if when > deadline:
                        _heappush(queue, item)
                        break
                    now = self._now = when
                    event = item[3]
                else:
                    break
                processed += 1
                if not (processed & _GC_SWEEP_MASK) and gc_paused:
                    _gc_collect(1)
                # Inlined Event._process (no subclass overrides it).
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
                if not event._ok and not event.defused:
                    unhandled.append(event._value)
                if unhandled:
                    exc = unhandled[0]
                    unhandled.clear()
                    raise exc
        finally:
            self.events_processed += processed
            if gc_paused:
                gc.enable()
        if deadline != float("inf"):
            self._now = deadline
        return None

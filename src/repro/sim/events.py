"""Event primitives for the discrete-event engine.

Lifecycle of an :class:`Event`:

1. *pending* — created, no value.
2. *triggered* — ``succeed``/``fail`` called; the event is placed on the
   simulator's queue at the current time (or at ``now + delay`` for
   :class:`Timeout`).
3. *processed* — popped from the queue; callbacks run, waiting processes
   resume.

**Every queued event has an observer.** ``succeed()`` on an event whose
callback list is empty goes straight from *pending* to *processed*: the
value is readable, a later ``yield`` takes the already-processed branch
of ``Process._resume``, and nothing is queued — popping it would have
run no code. That covers *notifications* (a process ending, a request
completing, a buffer becoming reusable) that nobody happened to wait for.
*Requests* — events handed back to a caller that is about to wait on
them (``Timeout``, store getters, resource claims, conditions) — are
triggered through the always-posting paths (``_trigger`` or an inlined
``_schedule_now``) even when already satisfied: that lane hop is what
fixes the caller's place in same-instant order. ``fail`` always posts,
so an unhandled failure still surfaces from ``Simulator.run``.

**A hand-off inside one simulated instant is a call.** Where one
component passes work to the next with no delay between them
(``Mailbox.put`` to a parked getter, a response to the request's
waiter, a SET value to its parked server worker), ``_hand_off`` runs
the waiter on the spot instead of queueing it, and ``Mailbox.get`` on a
buffered item returns a processed event.

This module is the innermost loop of every simulation: ``succeed``,
``_process``, and ``Process._resume`` run once (or more) per event, so
they trade a little repetition for fewer attribute lookups and Python
frames — triggering writes the slots inline and hands the event straight
to ``Simulator._schedule_now`` (the same-time fast lane), process spawn
skips span allocation when tracing is off, and ``AllOf``/``AnyOf``
override ``_check`` to avoid the generic per-child evaluate indirection.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.tracer import NULL_SPAN
from repro.sim.errors import SimulationError

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Trigger with :meth:`succeed` or :meth:`fail`; waiting processes resume
    with the event's value (or the exception thrown into them).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim):
        self.sim = sim
        #: Callables invoked (with the event) when the event is processed.
        #: ``None`` once processed.
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure has been delivered to (or absorbed by) a
        #: handler, so it is not re-raised out of :meth:`Simulator.run`.
        self.defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if self.callbacks:
            self.sim._schedule_now(self)
        else:
            # Nobody is waiting: processed on the spot, nothing queued.
            self.callbacks = None
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._schedule_now(self)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        """Trigger and always queue, waiter or not (see module docs)."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = ok
        self._value = value
        self.sim._schedule_now(self)

    def _hand_off(self, value: Any) -> None:
        """Succeed and run the waiters inside this call: a hand-off
        between two components at one simulated instant (a mailbox put
        to its parked getter, a completion to its waiter) is a call."""
        self._ok = True
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for cb in callbacks:
            cb(self)

    # -- processing (called by the simulator) -----------------------------

    def _process(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        # The overwhelming case is exactly one waiter (a parked process):
        # hand off without iterator setup.
        if len(callbacks) == 1:
            callbacks[0](self)
        else:
            for cb in callbacks:
                cb(self)
        if not self._ok and not self.defused:
            # A failure nobody handled: surface it from Simulator.run().
            self.sim._unhandled.append(self._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None):
        # Flattened Event.__init__ — timeouts are created once per yield
        # in every process loop, so the extra super() frame shows up.
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        self.delay = delay
        # The lane/heap rule (see the engine's module docstring): two
        # float ops decide where the timer goes.
        now = sim._now
        when = now + delay
        if when == now:
            sim._lane.append(self)
        else:
            heappush(sim._queue, (when, now, next(sim._counter), self))

    @classmethod
    def at(cls, sim, when: float, value: Any = None, *,
           posted: Optional[float] = None) -> "Timeout":
        """A timeout due at the absolute instant ``when``: back-to-back
        sleeps folded into one timer keep their exact due time if the
        caller sums it the way the sleeps would have
        (``(now + a) + b``, which ``now + (a + b)`` is not).

        ``posted`` is the instant the last folded sleep would have
        started (default: now). Timers due at one instant run in
        ``(posted, post order)``, so the folded timer keeps the place
        among them that its last sleep's timer would have had."""
        now = sim._now
        if when < now:
            raise SimulationError(f"timeout due at {when!r}, before now")
        if posted is None:
            posted = now
        elif not now <= posted <= when:
            raise SimulationError(f"timeout posted at {posted!r}, outside"
                                  f" [{now!r}, {when!r}]")
        self = cls.__new__(cls)
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        self.delay = when - now
        if when == now:
            sim._lane.append(self)
        else:
            heappush(sim._queue, (when, posted, next(sim._counter), self))
        return self


class Initialize(Event):
    """Internal: kicks off a newly spawned process."""

    __slots__ = ("process",)

    def __init__(self, sim, process: "Process"):
        # Flattened Event.__init__ — one Initialize per spawn, and spawn
        # is on the per-request path in the client and server loops.
        self.sim = sim
        self.callbacks = [process._on_event]
        self._ok = True
        self._value = None
        self.defused = False
        self.process = process
        sim._schedule_now(self)


class Process(Event):
    """Wraps a generator; the process *is* the event of its termination.

    The generator may ``yield`` any :class:`Event`; it is resumed with the
    event's value once the event is processed. A generator ``return x``
    succeeds the process event with value ``x``.
    """

    __slots__ = ("_gen", "_send", "_on_event", "name", "_span")

    def __init__(self, sim, gen: Generator, name: Optional[str] = None):
        if not hasattr(gen, "send"):
            raise SimulationError(f"spawn() needs a generator, got {gen!r}")
        super().__init__(sim)
        self._gen = gen
        # Bind the two callables the resume loop needs once per process
        # instead of allocating a fresh bound method on every yield.
        self._send = gen.send
        self._on_event = self._resume
        self.name = name or getattr(gen, "__name__", "process")
        #: Spawn-to-finish span; async because process lifetimes overlap
        #: arbitrarily. The shared no-op span when tracing is off, so the
        #: (very hot) spawn path allocates nothing for it.
        tracer = sim.tracer
        if tracer.enabled:
            self._span = tracer.begin(self.name, tid="processes", pid="sim",
                                      cat="process", async_=True)
        else:
            self._span = NULL_SPAN
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def _resume(self, event: Event) -> None:
        sim = self.sim
        send = self._send
        try:
            while True:
                if event._ok:
                    target = send(event._value)
                else:
                    event.defused = True
                    target = self._gen.throw(event._value)
                # Duck-typed event check: anything without a .sim is not an
                # Event, and this trades the per-yield isinstance() for an
                # AttributeError only on the (programming-error) slow path.
                try:
                    if target.sim is not sim:
                        raise SimulationError(
                            "event belongs to a different simulator")
                except AttributeError:
                    self._gen.close()
                    raise SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    ) from None
                callbacks = target.callbacks
                if callbacks is None:
                    # Already processed: loop around and feed its value in.
                    event = target
                    continue
                callbacks.append(self._on_event)
                return
        except StopIteration as stop:
            self._span.end()
            self.succeed(stop.value)
        except BaseException as exc:  # noqa: BLE001 - process died
            self._span.end(failed=True)
            self.fail(exc)


class Condition(Event):
    """Composite event over several child events.

    ``evaluate(events, done_count)`` decides completion. The condition's
    value is an ordered dict mapping each *triggered* child to its value.
    :class:`AllOf`/:class:`AnyOf` override :meth:`_check` directly and
    never consult ``evaluate``. A condition is built to be waited on, so
    it always takes its lane hop — also when its children were processed
    before it was constructed.
    """

    __slots__ = ("events", "_done", "_evaluate")

    def __init__(self, sim, events: Iterable[Event], evaluate=None):
        super().__init__(sim)
        self.events = tuple(events)
        self._done = 0
        self._evaluate = evaluate  # type: ignore[misc]
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition spans simulators")
        if not self.events:
            self._trigger(True, {})
            return
        check = self._check
        for ev in self.events:
            if ev.callbacks is None:
                check(ev)
            else:
                ev.callbacks.append(check)

    def _collect_values(self) -> dict:
        # Only *processed* children count: a Timeout carries its value from
        # creation, but it has not "happened" until the queue pops it.
        return {ev: ev._value for ev in self.events
                if ev.callbacks is None and ev._ok}

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._evaluate(self.events, self._done):
            self._trigger(True, self._collect_values())


class AllOf(Condition):
    """Triggers when every child event has triggered successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self._trigger(True, self._collect_values())


class AnyOf(Condition):
    """Triggers when at least one child event has triggered successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._done += 1
        self._trigger(True, self._collect_values())

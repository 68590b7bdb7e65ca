"""Structured begin/end span tracing in virtual (simulation) time.

The tracer records spans against the simulator clock, so a timeline
export shows exactly where *simulated* time goes — worker occupancy,
device I/O, NIC serialization, whole-operation lifetimes — the same
attribution the paper's six-stage breakdown performs numerically.

Spans come in two shapes:

* **sync** (default) — begin/end pairs that nest properly on one logical
  thread (a worker, a NIC transmit pipe). Exported as Chrome
  ``trace_event`` complete (``"X"``) events.
* **async** (``async_=True``) — spans that overlap arbitrarily (device
  I/O under NCQ parallelism, whole client operations, processes).
  Exported as async begin/end (``"b"``/``"e"``) pairs keyed by id.

The module-level :data:`NULL_TRACER` is installed everywhere when
tracing is off: ``begin`` returns a shared no-op span, nothing is
recorded, and no per-call state allocates, so disabled tracing costs a
single no-op method call at each instrumentation point.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Dict, List, Optional


class Span:
    """One open span; close it with :meth:`end` (or use as a context)."""

    __slots__ = ("_tracer", "name", "cat", "tid", "pid", "t0", "args",
                 "async_id", "_open")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, tid: str,
                 pid: str, t0: float, args: Optional[Dict[str, object]],
                 async_id: Optional[int]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.pid = pid
        self.t0 = t0
        self.args = args
        self.async_id = async_id
        self._open = True

    def end(self, at: Optional[float] = None, **extra: object) -> None:
        """Close the span at the current sim time, or at ``at``
        (idempotent)."""
        if not self._open:
            return
        self._open = False
        if extra:
            self.args = {**(self.args or {}), **extra}
        self._tracer._close(self, at)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class SpanTracer:
    """Buffers span events; export via :mod:`repro.obs.export`."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        #: Raw events with ``ts``/``dur`` in *seconds* (export scales to µs).
        self.events: List[Dict[str, object]] = []
        self._async_ids = count(1)

    @property
    def now(self) -> float:
        return self._clock()

    def begin(self, name: str, tid: str = "main", pid: str = "repro",
              cat: str = "span", async_: bool = False,
              **args: object) -> Span:
        """Open a span at the current sim time."""
        return Span(self, name, cat, tid, pid, self.now, args or None,
                    next(self._async_ids) if async_ else None)

    # ``with tracer.span(...)`` reads better at call sites that fully
    # enclose the traced region.
    span = begin

    def complete(self, name: str, t0: float, t1: float, tid: str = "main",
                 pid: str = "repro", cat: str = "span",
                 **args: object) -> None:
        """Record a sync span whose two ends are already known."""
        ev: Dict[str, object] = {"name": name, "cat": cat, "ph": "X",
                                 "ts": t0, "dur": t1 - t0, "pid": pid,
                                 "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)

    def _close(self, span: Span, at: Optional[float] = None) -> None:
        now = self.now if at is None else at
        if span.async_id is None:
            self.complete(span.name, span.t0, now, span.tid, span.pid,
                          span.cat, **(span.args or {}))
        else:
            base: Dict[str, object] = {"name": span.name, "cat": span.cat,
                                       "pid": span.pid, "tid": span.tid}
            if span.args:
                base["args"] = span.args
            self.events.append({**base, "ph": "b", "id": span.async_id,
                                "ts": span.t0})
            self.events.append({**base, "ph": "e", "id": span.async_id,
                                "ts": now})

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class _NullSpan:
    __slots__ = ()

    def end(self, at: Optional[float] = None, **extra: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every call is a no-op returning shared objects."""

    enabled = False
    events: List[Dict[str, object]] = []
    now = 0.0

    def begin(self, name: str, tid: str = "main", pid: str = "repro",
              cat: str = "span", async_: bool = False,
              **args: object) -> _NullSpan:
        return NULL_SPAN

    span = begin

    def complete(self, name: str, t0: float, t1: float, tid: str = "main",
                 pid: str = "repro", cat: str = "span",
                 **args: object) -> None:
        pass

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()

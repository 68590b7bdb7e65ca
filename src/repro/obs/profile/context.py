"""Per-request causal trace context.

:class:`RequestProfiler` hands out integer trace ids in
``Client._issue`` (subject to 1-in-N sampling); the id rides on the
request object, the wire messages, the server dispatch, and the storage
I/O, and every instrumented layer reports flat ``(stage, t0, t1)`` spans
against it. ``finish`` runs the critical-path attribution and folds the
result into the bounded-memory :class:`~.report.ProfileReport` — live
per-trace state exists only between issue and completion.

Profiling is pure observation: it reads the simulation clock but never
creates events, so a profiled run is event-for-event identical to an
unprofiled one. The disabled path is :data:`NULL_PROFILER`, whose
``enabled`` flag lets hot paths skip even the method call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.profile.critical_path import (
    Span,
    attribute,
    build_tree,
    canonical_stage,
    folded_stacks,
)
from repro.obs.profile.report import ProfileReport


class _Trace:
    """Live state for one in-flight sampled request."""

    __slots__ = ("op", "api", "t_issue", "spans", "open", "t_response")

    def __init__(self, op: str, api: str, t_issue: float):
        self.op = op
        self.api = api
        self.t_issue = t_issue
        self.spans: List[Span] = []
        #: LIFO of cross-process stage opens: (stage, t0).
        self.open: List[Tuple[str, float]] = []
        #: When the client took the response (None: none arrived).
        self.t_response: Optional[float] = None


class RequestProfiler:
    """Allocates trace ids, collects spans, aggregates attributions."""

    enabled = True

    def __init__(self, clock: Callable[[], float], sample_every: int = 1,
                 keep_traces: bool = False):
        self.clock = clock
        self.sample_every = max(1, int(sample_every))
        self.keep_traces = keep_traces
        self._counter = 0
        self._next_id = 0
        self._live: Dict[int, _Trace] = {}
        self._report = ProfileReport()
        self._report.sample_every = self.sample_every
        #: retained (trace_id, class, t_issue, t_done, spans, t_response)
        #: tuples when ``keep_traces`` — tests, tooling, Fig 2's fold.
        self.traces: List[tuple] = []

    # -- lifecycle -----------------------------------------------------------

    def maybe_start(self, op: str, api: str = "",
                    t_issue: Optional[float] = None) -> Optional[int]:
        """Start a trace for this request, or None when not sampled.

        ``t_issue`` backdates the trace to the request's true issue time
        when allocation happens later (batched mget entry setup).
        """
        self._counter += 1
        if (self._counter - 1) % self.sample_every != 0:
            return None
        tid = self._next_id
        self._next_id += 1
        self._live[tid] = _Trace(
            op, api, self.clock() if t_issue is None else t_issue)
        self._report.started += 1
        return tid

    def record(self, trace_id: int, stage: str, t0: float, t1: float) -> None:
        """Report one completed span against a live trace."""
        tr = self._live.get(trace_id)
        if tr is not None and t1 > t0:
            tr.spans.append((stage, t0, t1))

    def open_stage(self, trace_id: int, stage: str) -> None:
        """Begin a span whose end lives in another process (the
        connection's receiver -> worker): the close side pops the newest matching open (LIFO, so a
        retried request's stale open cannot shadow the fresh one)."""
        tr = self._live.get(trace_id)
        if tr is not None:
            tr.open.append((stage, self.clock()))

    def close_stage(self, trace_id: int, stage: str) -> None:
        tr = self._live.get(trace_id)
        if tr is None:
            return
        for i in range(len(tr.open) - 1, -1, -1):
            if tr.open[i][0] == stage:
                _, t0 = tr.open.pop(i)
                now = self.clock()
                if now > t0:
                    tr.spans.append((stage, t0, now))
                return

    def mark_response(self, trace_id: int) -> None:
        """The client took the response now: no span (it attributes
        nothing), but Fig 2's ``server_response`` ends here."""
        tr = self._live.get(trace_id)
        if tr is not None:
            tr.t_response = self.clock()

    def finish(self, trace_id: int, result) -> None:
        """Complete a trace: attribute latency and fold into the report.

        The attribution window ends at the request's recorded completion
        time, extended to cover any later attributable span (a sync
        write's replica-ack barrier outlives ``t_complete``). A batched
        mget entry can be finalized well after it completed; using
        ``t_complete`` rather than the wall clock keeps the window equal
        to the :class:`~repro.client.request.ReqResult` latency. A span
        still ending in the future (a message in flight when the client
        gave up: its spans are written at submit) extends nothing.
        """
        tr = self._live.pop(trace_id, None)
        if tr is None:
            return
        present = self.clock()
        now = getattr(result, "t_complete", 0.0)
        if now <= tr.t_issue:
            now = present
        for name, _s0, s1 in tr.spans:
            if now < s1 <= present and canonical_stage(name) is not None:
                now = s1
        cls = self._classify(tr, result)
        breakdown = attribute(tr.spans, tr.t_issue, now)
        latency = now - tr.t_issue
        sk = self._report.sketch(cls)
        sk.add(latency, breakdown)
        tree = build_tree(tr.spans, tr.t_issue, now)
        self._report.fold(cls, folded_stacks(tree))
        self._report.finished += 1
        if self.keep_traces:
            self.traces.append((trace_id, cls, tr.t_issue, now,
                                tuple(tr.spans), tr.t_response))

    def discard(self, trace_id: int) -> None:
        """Drop a live trace without aggregating (errored request)."""
        self._live.pop(trace_id, None)

    # -- results -------------------------------------------------------------

    @staticmethod
    def _classify(tr: _Trace, result) -> str:
        """Trace class: op plus serving tier when it matters (GET/SET)."""
        op = tr.op
        if op == "get":
            if not getattr(result, "hit", True):
                return "get:miss"
            ssd = any(s[0].startswith("ssd") for s in tr.spans)
            return "get:ssd" if ssd else "get:ram"
        if op == "set":
            ssd = any(s[0].startswith("ssd") for s in tr.spans)
            return "set:ssd" if ssd else "set:ram"
        return op

    @property
    def live(self) -> int:
        return len(self._live)

    def report(self) -> ProfileReport:
        return self._report

    def reset(self) -> None:
        """Drop everything (warmup pollution) — ids keep increasing."""
        self._counter = 0
        self._live.clear()
        self._report = ProfileReport()
        self._report.sample_every = self.sample_every
        self.traces = []


class _NullProfiler:
    """Disabled profiler: every entry point is an unconditional no-op.

    Call sites guard on ``enabled`` so the NULL path costs one attribute
    read; the methods exist for unguarded cold paths.
    """

    enabled = False
    sample_every = 0
    traces: List[tuple] = []

    def maybe_start(self, op: str, api: str = "",
                    t_issue: Optional[float] = None) -> Optional[int]:
        return None

    def record(self, trace_id, stage, t0, t1) -> None:
        pass

    def open_stage(self, trace_id, stage) -> None:
        pass

    def close_stage(self, trace_id, stage) -> None:
        pass

    def mark_response(self, trace_id) -> None:
        pass

    def finish(self, trace_id, result) -> None:
        pass

    def discard(self, trace_id) -> None:
        pass

    @property
    def live(self) -> int:
        return 0

    def report(self) -> ProfileReport:
        return ProfileReport()

    def reset(self) -> None:
        pass


NULL_PROFILER = _NullProfiler()


def profile_message(profiler, trace_id: int, clock: Callable[[], float],
                    msg, prefix: str = "") -> None:
    """Record the nic/wire stages of one net message just handed over.

    ``nic`` covers send -> on-wire (tx queue wait + serialization),
    ``wire`` covers on-wire -> delivery (link latency). A message knows
    both instants from the moment of submit, so the two spans are
    written here and nothing observes the message afterwards.
    """
    profiler.record(trace_id, prefix + "nic", clock(), msg.wire_at)
    profiler.record(trace_id, prefix + "wire", msg.wire_at, msg.delivered_at)

"""Critical-path analysis over one request's stage spans.

A profiled request accumulates flat ``(stage, t0, t1)`` spans from every
layer it crosses (client engine, NIC, wire, server queue/worker, slab
index, RAM copies, SSD I/O, replica barriers). This module turns that
span soup into the paper's style of latency attribution:

* :func:`attribute` — an exact partition of the request's
  ``[t_issue, t_complete]`` interval over the canonical stage taxonomy.
  Where spans overlap (an SSD read inside the server's cache-check span,
  a wire transfer during a credit wait) the **most specific** stage wins
  each elementary interval, so the per-stage durations always sum to the
  recorded end-to-end latency — by construction, not by luck.
* :func:`build_tree` / :func:`folded_stacks` — a containment-nested span
  tree and its folded-stack (flamegraph) rendering, for the causal view
  of *why* a stage was on the critical path.

Span names may be dotted for detail (``ssd.io`` nests under ``ssd``;
``replica.*`` marks replica fan-out work). Flat attribution maps a
dotted name to its leading component; ``replica.*`` spans are excluded
from attribution — the explicit ``replica_wait`` barrier span accounts
for that time — but still appear in the folded tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Canonical stage taxonomy, in presentation order. ``other`` is the
#: residual: request lifetime not covered by any recorded span.
STAGES = (
    "client_queue",   # API overhead + engine queue wait + engine CPU
    "credit",         # receive-buffer credit rendezvous (RDMA SET values)
    "nic",            # tx queue wait + serialization (either direction)
    "wire",           # link latency (either direction)
    "server_queue",   # receiver enqueue -> worker dequeue
    "server_cpu",     # recv/parse/response-prep CPU on the server
    "index",          # hash lookup, LRU update, slab-allocator CPU
    "ram",            # memcpy staging / buffer-served value copies
    "ssd",            # device I/O (flush waits, SSD value reads)
    "backend",        # miss penalty: backend fetch + repopulation
    "replica_wait",   # sync-write replica ack barrier
    "backoff",        # retry backoff sleeps
    "other",          # residual (uninstrumented time)
)

#: Sweep priority: where spans overlap, the higher number wins the
#: elementary interval (more specific stages beat enclosing ones).
_PRIORITY = {
    "other": 0,
    "client_queue": 1,
    "backoff": 2,
    "replica_wait": 3,
    "backend": 4,
    "credit": 5,
    "wire": 6,
    "nic": 7,
    "server_queue": 8,
    "server_cpu": 9,
    "index": 10,
    "ram": 11,
    "ssd": 12,
}

Span = Tuple[str, float, float]


def canonical_stage(name: str) -> Optional[str]:
    """Flat-attribution stage for a span name (None: excluded).

    ``ssd.io`` -> ``ssd``; ``replica.wire`` -> None (replica fan-out
    work is represented by the ``replica_wait`` barrier span); unknown
    names fold into ``other``.
    """
    base = name.split(".", 1)[0]
    if base == "replica":
        return None
    return base if base in _PRIORITY else "other"


def attribute(spans: Sequence[Span], t0: float, t1: float) -> Dict[str, float]:
    """Partition ``[t0, t1]`` over the canonical stages.

    Boundary sweep: every elementary interval between consecutive span
    edges is charged to the highest-priority stage covering it (or
    ``other`` when uncovered). The result is an exact partition — the
    values sum to ``t1 - t0`` up to float rounding.
    """
    if t1 <= t0:
        return {}
    clipped: List[Span] = []
    edges = {t0, t1}
    for name, s0, s1 in spans:
        stage = canonical_stage(name)
        if stage is None:
            continue
        s0 = max(s0, t0)
        s1 = min(s1, t1)
        if s1 > s0:
            clipped.append((stage, s0, s1))
            edges.add(s0)
            edges.add(s1)
    out: Dict[str, float] = {}
    bounds = sorted(edges)
    for lo, hi in zip(bounds, bounds[1:]):
        best = "other"
        best_p = 0
        for stage, s0, s1 in clipped:
            if s0 <= lo and s1 >= hi:
                p = _PRIORITY[stage]
                if p > best_p:
                    best, best_p = stage, p
        out[best] = out.get(best, 0.0) + (hi - lo)
    return out


class SpanNode:
    """One node of the containment-nested span tree."""

    __slots__ = ("name", "t0", "t1", "children")

    def __init__(self, name: str, t0: float, t1: float):
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.children: List["SpanNode"] = []

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def self_time(self) -> float:
        """Duration not covered by any child (children may overlap)."""
        if not self.children:
            return self.duration
        covered = 0.0
        cur0 = cur1 = None
        for c in sorted(self.children, key=lambda n: n.t0):
            if cur1 is None or c.t0 > cur1:
                if cur1 is not None:
                    covered += cur1 - cur0
                cur0, cur1 = c.t0, c.t1
            else:
                cur1 = max(cur1, c.t1)
        if cur1 is not None:
            covered += cur1 - cur0
        return max(0.0, self.duration - covered)


def build_tree(spans: Sequence[Span], t0: float, t1: float,
               root: str = "request") -> SpanNode:
    """Nest spans by containment under a synthetic root over [t0, t1].

    Spans are clipped to the root interval; a span crossing its
    enclosing span's end is clipped to it (cross-overlaps cannot nest).
    """
    root_node = SpanNode(root, t0, t1)
    items = []
    for name, s0, s1 in spans:
        s0 = max(s0, t0)
        s1 = min(s1, t1)
        if s1 > s0:
            items.append((s0, -(s1 - s0), name, s1))
    items.sort(key=lambda it: (it[0], it[1]))
    stack = [root_node]
    for s0, _neg, name, s1 in items:
        while len(stack) > 1 and s0 >= stack[-1].t1:
            stack.pop()
        top = stack[-1]
        node = SpanNode(name, s0, min(s1, top.t1))
        top.children.append(node)
        stack.append(node)
    return root_node


def folded_stacks(tree: SpanNode) -> Dict[str, float]:
    """Flamegraph folded-stack lines: ``path;to;frame -> self seconds``."""
    out: Dict[str, float] = {}

    def walk(node: SpanNode, path: str) -> None:
        frame = f"{path};{node.name}" if path else node.name
        st = node.self_time()
        if st > 0:
            out[frame] = out.get(frame, 0.0) + st
        for child in node.children:
            walk(child, frame)

    walk(tree, "")
    return out

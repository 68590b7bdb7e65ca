"""Fabric, nodes, NICs, and the raw message-transfer machinery.

A :class:`Message` moves through three observable points:

1. *on wire* — the sender's NIC finished serializing it; the sender's
   buffers are free for reuse (this is what ``bset``/``bget`` wait for).
2. *delivered* — the last byte arrived at the destination NIC.
3. consumption — a higher layer (QP recv queue, IPoIB inbox) hands it to
   the application.

The first two are recorded on every message as plain timestamps
(``t_wire`` / ``t_delivered``). The matching events, ``msg.on_wire`` and
``msg.delivered``, exist only for a message somebody asked them of: they
are created on first access (already processed if the milestone has
passed), and the NIC triggers an event only if it exists. Pure observers
that need the instants but no wake-up (the request profiler) register a
hook in ``msg.hooks`` instead, which the NIC calls inline — so neither
an unobserved nor a profiled message costs the engine any event for its
milestones.

The transmit side of each NIC is a capacity-1 resource, so concurrent
messages from one node serialize — this is what creates client-side NIC
contention in the 100-client throughput experiment (Fig 7c).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.net.params import LinkParams
from repro.obs.api import NULL_OBS, Observability
from repro.obs.tracer import NULL_SPAN
from repro.sim import Event, Resource, Simulator, Timeout


class Message:
    """One transfer over the fabric.

    ``payload`` is an arbitrary Python object (protocol header, value
    descriptor, ...). ``nbytes`` is the size that occupies the wire.
    """

    __slots__ = ("src", "dst", "nbytes", "payload", "one_sided", "recv_cpu",
                 "t_wire", "t_delivered", "hooks", "_on_wire", "_delivered")

    def __init__(self, src: "NIC", dst: "NIC", nbytes: int,
                 payload: Any = None, one_sided: bool = False,
                 recv_cpu: float = 0.0):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        #: True for one-sided RDMA ops: the destination CPU is not involved.
        self.one_sided = one_sided
        #: CPU time the receiver's event loop must spend before handing
        #: the message to the application (zero for one-sided ops).
        self.recv_cpu = recv_cpu
        #: Sim time of each milestone; None until it is reached.
        self.t_wire: Optional[float] = None
        self.t_delivered: Optional[float] = None
        #: Inline observers: objects with ``on_wire()`` / ``delivered()``
        #: methods the NIC calls at the two milestones. A list because
        #: several traces can ride one message (a batched mget).
        self.hooks: Optional[List[Any]] = None
        self._on_wire: Optional[Event] = None
        self._delivered: Optional[Event] = None

    @property
    def on_wire(self) -> Event:
        """Event of the buffer-reuse point (value: this message)."""
        ev = self._on_wire
        if ev is None:
            ev = self._on_wire = self._milestone(self.t_wire)
        return ev

    @property
    def delivered(self) -> Event:
        """Event of arrival at the destination NIC (value: this message)."""
        ev = self._delivered
        if ev is None:
            ev = self._delivered = self._milestone(self.t_delivered)
        return ev

    def _milestone(self, reached_at: Optional[float]) -> Event:
        ev = Event(self.src.sim)
        if reached_at is not None:
            ev.succeed(self)  # no waiter yet: processed, nothing queued
        return ev

    def _reach_wire(self, now: float) -> None:
        self.t_wire = now
        hooks = self.hooks
        if hooks is not None:
            for hook in hooks:
                hook.on_wire()
        ev = self._on_wire
        if ev is not None:
            ev.succeed(self)

    def _reach_dst(self, now: float) -> None:
        self.t_delivered = now
        hooks = self.hooks
        if hooks is not None:
            for hook in hooks:
                hook.delivered()
        ev = self._delivered
        if ev is not None:
            ev.succeed(self)


class NIC:
    """One host channel adapter attached to the fabric."""

    def __init__(self, sim: Simulator, node: "Node", params: LinkParams,
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.node = node
        self.params = params  # property: also derives the hot constants
        #: Serializes outbound messages (the DMA/wire is one pipe).
        self.tx = Resource(sim, capacity=1)
        #: Called with each delivered Message; installed by the transport.
        self.deliver: Optional[Callable[[Message], None]] = None
        # traffic accounting
        self.bytes_sent = 0
        self.messages_sent = 0
        # live metrics (no-ops when observability is disabled)
        self.obs = obs or NULL_OBS
        self._metrics_on = self.obs.registry.enabled
        self._tracer = self.obs.tracer
        reg = self.obs.registry
        labels = dict(node=node.name, link=params.name)
        self._m_bytes = reg.counter("nic_bytes_sent", **labels)
        self._m_msgs = reg.counter("nic_messages_sent", **labels)
        self._m_tx_wait = reg.histogram("nic_tx_wait_seconds", **labels)
        reg.gauge("nic_tx_backlog",
                  fn=lambda: self.tx.in_use + self.tx.queue_length, **labels)

    @property
    def params(self) -> LinkParams:
        return self._params

    @params.setter
    def params(self, params: LinkParams) -> None:
        # The transmit pipeline reads per-message constants from flat
        # attributes instead of walking ``self.params.*`` per call; the
        # setter keeps them coherent when a fault injector swaps the
        # LinkParams mid-run (link_degrade and its restoration).
        self._params = params
        self._latency = params.latency
        self._cpu_send = params.cpu_send
        self._serialize = params.serialize_time

    def transmit(self, dst: "NIC", nbytes: int, payload: Any = None,
                 one_sided: bool = False, recv_cpu: float = 0.0) -> Message:
        """Start an asynchronous transfer; returns the in-flight Message.

        The transfer is a callback chain rather than a spawned process:
        tx grant -> serialize busy-time -> on wire -> wire latency ->
        delivered. One message used to cost a generator, a Process, and
        an Initialize event on top of the model's own events; the chain
        keeps only the model's events. The tx slot is requested here,
        synchronously, which preserves FIFO grant order (spawn order and
        call order were already identical).
        """
        sim = self.sim
        msg = Message(self, dst, nbytes, payload, one_sided, recv_cpu)
        t_queued = sim._now
        req = self.tx.request()
        # partial, not a lambda: callbacks receive the event argument,
        # which the trailing _ev parameter absorbs without the extra
        # Python frame a lambda would add to every hop of the chain.
        req.callbacks.append(partial(self._tx_granted, msg, req, t_queued))
        return msg

    def _tx_granted(self, msg: Message, req, t_queued: float,
                    _ev=None) -> None:
        sim = self.sim
        if self._metrics_on:
            self._m_tx_wait.observe(sim._now - t_queued)
        tracer = self._tracer
        if tracer.enabled:
            span = tracer.begin(
                "tx", tid=f"{self.node.name}/{self.params.name}", pid="net",
                cat="net", bytes=msg.nbytes)
        else:
            span = NULL_SPAN
        busy = self._cpu_send + self._serialize(msg.nbytes)
        if busy > 0:
            Timeout(sim, busy).callbacks.append(
                partial(self._tx_done, msg, req, span))
        else:
            self._tx_done(msg, req, span)

    def _tx_done(self, msg: Message, req, span, _ev=None) -> None:
        self.tx.release(req)
        nbytes = msg.nbytes
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if span is not NULL_SPAN:
            span.end()
        if self._metrics_on:
            self._m_bytes.inc(nbytes)
            self._m_msgs.inc()
        sim = self.sim
        msg._reach_wire(sim._now)
        Timeout(sim, self._latency).callbacks.append(
            partial(self._delivered, msg))

    def _delivered(self, msg: Message, _ev=None) -> None:
        msg._reach_dst(self.sim._now)
        deliver = msg.dst.deliver
        if deliver is not None:
            deliver(msg)
        else:
            payload = msg.payload
            if payload is not None:
                # Self-routing frames (RDMA / IPoIB) dispatch themselves.
                route = getattr(payload, "deliver", None)
                if route is not None:
                    route(msg)


class Node:
    """A compute node: a name plus one NIC per transport in use."""

    def __init__(self, sim: Simulator, name: str, fabric: "Fabric"):
        self.sim = sim
        self.name = name
        self.fabric = fabric
        self._nics: Dict[str, NIC] = {}

    def nic(self, params: LinkParams) -> NIC:
        """The node's NIC for a given transport (created on first use).

        All endpoints on the node using the same transport share the NIC
        (and therefore contend for its transmit side).
        """
        if params.name not in self._nics:
            self._nics[params.name] = NIC(self.sim, self, params,
                                          obs=self.fabric.obs)
        return self._nics[params.name]


class Fabric:
    """Star-topology interconnect; owns the nodes."""

    def __init__(self, sim: Simulator, obs: Optional[Observability] = None):
        self.sim = sim
        self.obs = obs or NULL_OBS
        self._nodes: Dict[str, Node] = {}

    def node(self, name: str) -> Node:
        if name not in self._nodes:
            self._nodes[name] = Node(self.sim, name, self)
        return self._nodes[name]

    @property
    def nodes(self) -> Dict[str, Node]:
        return dict(self._nodes)

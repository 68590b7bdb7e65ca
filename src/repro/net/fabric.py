"""Fabric, nodes, NICs, and the raw message-transfer machinery.

A :class:`Message` moves through three observable points:

1. *on wire* — the sender's NIC finished serializing it; the sender's
   buffers are free for reuse (this is what ``bset``/``bget`` wait for).
2. *delivered* — the last byte arrived at the destination NIC.
3. consumption — a higher layer (an endpoint's receiver or inbox) hands
   it to the application.

The transmit side of each NIC is one pipe, so concurrent messages from
one node serialize — this is what creates client-side NIC contention in
the 100-client throughput experiment (Fig 7c). A FIFO server whose
service time is known at arrival is a clock, not a queue: the NIC keeps
the instant its pipe falls idle, and a message handed to it learns both
of its milestones on the spot,

    wire_at      = max(at, busy_until) + (cpu_send + serialize(nbytes))
    delivered_at = wire_at + latency

(the Lindley recursion), where ``at`` is the message's send instant:
now, or a later instant its sender already knows (a client engine whose
NIC carries only its own sends hands a job over as the job starts, for
the instant its CPU ends). They are plain numbers on the message,
``at`` / ``wire_at`` / ``delivered_at``, fixed at submit, and the one
event a message costs the engine is the timer that delivers it, posted
at ``at``. The events
``msg.on_wire`` and ``msg.delivered`` are timers made for whoever asks
before the instant (already processed from the instant on). Frames that
arrive in the same instant are handled in the order they were handed to
their NICs.

The same rule holds on the receive side. A stream socket whose consumer
pays the kernel receive (``rx``: serial CPU per socket, known at
submit) keeps the instant that receive falls idle, and the message's one
timer is due when its receive ends,

    rx_start  = max(delivered_at, rx.rx_free_at)
    taken_at  = rx_start + recv_cpu

posted at ``rx_start``, where a receive loop would have started that
sleep. A *polled* message (a one-sided write the destination reads when
it wants to) costs no event at all: its arrival exists only as the
``delivered`` milestone, made for whoever asks.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.net.params import LinkParams
from repro.obs.api import NULL_OBS, Observability
from repro.sim import Event, SimulationError, Simulator, Timeout


class Message:
    """One transfer over the fabric.

    ``payload`` is an arbitrary Python object (protocol header, value
    descriptor, ...). ``nbytes`` is the size that occupies the wire.
    """

    __slots__ = ("src", "dst", "nbytes", "payload", "one_sided", "recv_cpu",
                 "at", "wire_at", "delivered_at", "_on_wire", "_delivered")

    def __init__(self, src: "NIC", dst: "NIC", nbytes: int, payload: Any,
                 one_sided: bool, recv_cpu: float, at: float,
                 wire_at: float, delivered_at: float):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        #: True for one-sided RDMA ops: the destination CPU is not involved.
        self.one_sided = one_sided
        #: CPU time the receiver's event loop must spend before handing
        #: the message to the application (zero for one-sided ops).
        self.recv_cpu = recv_cpu
        #: Sim time of each milestone, known from the moment of submit:
        #: the send instant, the buffer-reuse point, the arrival.
        self.at = at
        self.wire_at = wire_at
        self.delivered_at = delivered_at
        self._on_wire: Optional[Event] = None
        self._delivered: Optional[Event] = None

    @property
    def on_wire(self) -> Event:
        """Event of the buffer-reuse point (value: this message)."""
        ev = self._on_wire
        if ev is None:
            ev = self._on_wire = self._milestone(self.wire_at)
        return ev

    @property
    def delivered(self) -> Event:
        """Event of arrival at the destination NIC (value: this message)."""
        ev = self._delivered
        if ev is None:
            ev = self._delivered = self._milestone(self.delivered_at)
        return ev

    def _milestone(self, when: float) -> Event:
        # Posted no earlier than the send instant, where the timer of a
        # message sent at that instant would have been made.
        sim = self.src.sim
        now = sim._now
        if now < when:
            at = self.at
            return Timeout.at(sim, when, self, posted=at if at > now else now)
        return Event(sim).succeed(self)  # no waiter: processed at once


class NIC:
    """One host channel adapter attached to the fabric."""

    def __init__(self, sim: Simulator, node: "Node", params: LinkParams,
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.node = node
        #: The latest send instant a message was handed over for (see
        #: the ``params`` setter).
        self._handed_at = 0.0
        self.params = params  # property: also derives the hot constants
        #: The instant the transmit pipe falls idle (the DMA/wire is one
        #: pipe: a message starts serializing no earlier than this).
        self.busy_until = 0.0
        #: Called with each delivered Message; installed by the transport.
        self.deliver: Optional[Callable[[Message], None]] = None
        #: The clients wired to send through this NIC. One of them alone
        #: may hand a message over ahead of its send instant; with more,
        #: each sends at its own now (the pipe must see sends in time
        #: order).
        self.senders: Set[Any] = set()
        # traffic accounting (counted when a message is handed over)
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
        #: ``(at, wire_at)`` of the messages not yet on the wire, oldest
        #: first (kept only while the registry is on; read by the gauge).
        self._tx_pending: Deque[Tuple[float, float]] = deque()
        reg.gauge("nic_tx_backlog", fn=self._tx_backlog, **labels)

    @property
    def params(self) -> LinkParams:
        return self._params

    @params.setter
    def params(self, params: LinkParams) -> None:
        # The transmit path reads per-message constants from flat
        # attributes instead of walking ``self.params.*`` per call. A
        # message's instants are fixed when it is handed over, so a swap
        # mid-run (link_degrade and its restoration) applies to messages
        # submitted from now on: those already queued or serializing
        # keep the rate and latency they were submitted under. A message
        # handed over for a later send instant has not been sent yet, so
        # it would straddle the swap: that is refused.
        if self._handed_at > self.sim._now:
            raise SimulationError(
                f"{self.node.name}: link params swapped at "
                f"{self.sim._now!r} with a message handed over for "
                f"{self._handed_at!r} still unsent")
        self._params = params
        self._latency = params.latency
        self._cpu_send = params.cpu_send
        self._serialize = params.serialize_time

    def _tx_backlog(self) -> int:
        """Messages queued for the pipe or serializing right now: sent
        (their send instant reached) and not yet on the wire."""
        now = self._tx_prune()
        return sum(1 for at, _ in self._tx_pending if at <= now)

    def _tx_prune(self) -> float:
        """Drop the messages already on the wire; returns now."""
        pending, now = self._tx_pending, self.sim._now
        while pending and pending[0][1] <= now:
            pending.popleft()
        return now

    def transmit(self, dst: "NIC", nbytes: int, payload: Any = None,
                 one_sided: bool = False, recv_cpu: float = 0.0,
                 rx: Any = None, polled: bool = False,
                 at: Optional[float] = None) -> Message:
        """Start an asynchronous transfer; returns the in-flight Message.

        ``at`` is the send instant (default: now). A sender that knows
        it ahead of time — a client engine whose CPU for the message is
        a known float — hands the message over early; it then is a
        message sent at ``at``: it starts no earlier than ``at``, its
        delivery timer is posted at ``at``, its tx wait counts from
        ``at`` and the backlog gauge counts it only from ``at`` on.
        Messages must be handed over in send-instant order.

        The pipe is FIFO and a message's busy time is known here, so
        its whole schedule is too. The sums are grouped the way
        back-to-back sleeps would add them up, ``(start + busy) +
        latency``, which ``start + (busy + latency)`` is not.

        ``rx`` is the destination socket when its consumer pays the
        kernel receive (an object with a float ``rx_free_at``): the
        message is handed over once that receive ends. ``polled``
        schedules nothing (see the module docs).
        """
        sim = self.sim
        if at is None:
            at = sim._now
        self._handed_at = at
        start = self.busy_until
        if start < at:
            start = at
        wire_at = start + (self._cpu_send + self._serialize(nbytes))
        self.busy_until = wire_at
        delivered_at = wire_at + self._latency
        msg = Message(self, dst, nbytes, payload, one_sided, recv_cpu,
                      at, wire_at, delivered_at)
        if rx is not None:
            rx_start = rx.rx_free_at
            if rx_start < delivered_at:
                rx_start = delivered_at
            taken_at = rx.rx_free_at = rx_start + recv_cpu
            Timeout.at(sim, taken_at, msg, posted=rx_start).callbacks.append(
                self._delivered)
        elif not polled:
            Timeout.at(sim, delivered_at, msg, posted=at).callbacks.append(
                self._delivered)
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if self._metrics_on:
            self._m_tx_wait.observe(start - at)
            self._m_bytes.inc(nbytes)
            self._m_msgs.inc()
            self._tx_prune()  # so the deque stays backlog-sized
            self._tx_pending.append((at, wire_at))
        tracer = self._tracer
        if tracer.enabled:
            tracer.complete(
                "tx", start, wire_at,
                tid=f"{self.node.name}/{self.params.name}", pid="net",
                cat="net", bytes=nbytes)
        return msg

    @staticmethod
    def _delivered(timer: Event) -> None:
        msg = timer._value
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

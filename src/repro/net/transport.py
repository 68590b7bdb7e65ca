"""Uniform endpoint API over RDMA and IPoIB for the Memcached protocol.

The client and server code talk to :class:`Endpoint` objects only; the
two concrete transports differ in:

* whether bulk value transfers can be one-sided (RDMA write: no remote
  CPU, no remote event-loop occupancy) — the enabler of the non-blocking
  runtime design;
* per-message CPU and effective bandwidth (kernel stack vs verbs).

``Endpoint.send`` returns the in-flight :class:`~repro.net.fabric.Message`
whose ``on_wire`` event is the *buffer-reuse* point the paper's
``bset``/``bget`` APIs wait on, and whose ``delivered`` event marks
arrival at the peer. The message knows both instants from the moment it
is sent (``wire_at`` / ``delivered_at``); its delivery is the one event
it costs, and ``on_wire`` is a timer created only for a caller that
asks. The message is the only object of a transfer: its ``to`` is the
peer endpoint, whose :meth:`Endpoint.arrive` hands that very message to
the peer's receiver (or, without one, its inbox) as it is delivered.

:class:`RdmaEndpoint` on a :class:`~repro.net.fabric.NIC` is the
simulator's only RDMA model. The Memcached runtime's three parts all
ride it: the request header is a two-sided send, and two polled writes
(:meth:`RdmaEndpoint.write_polled`) carry the rest — a SET's value,
written once the server has granted a receive-buffer credit and found
by the server worker polling that buffer, and the server's BufferAck. A
polled write costs no event: it goes to the peer's poller as it is
sent, and the peer reads its ``delivered`` milestone when it polls.

:class:`IPoIBEndpoint` is one side of a TCP socket running over the IB
HCA in IPoIB mode: every message crosses the kernel stack on both ends
(``cpu_send``/``cpu_recv`` from :data:`repro.net.params.FDR_IPOIB`), is
segmented at the IPoIB MTU, and sees roughly a third of the native link
bandwidth. There are no one-sided operations. A socket whose consumer
pays the kernel receive (:meth:`IPoIBEndpoint.listen`) keeps it as a
clock: the receive is serial CPU per socket and its time is known when
the peer sends, so each message is handed over ``cpu_recv`` after it
arrived and the message before it was received (see
:mod:`repro.net.fabric`). The clock advances in send order, so a stream
socket never reorders: messages reach the receiver in the order they
were sent, even when a later one arrives first (a ``link_degrade``
restored mid-batch shortens the latency of what is sent after it).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.net.fabric import Message, Node
from repro.net.params import FDR_IPOIB, FDR_RDMA, LinkParams
from repro.sim import Mailbox, Simulator


class Endpoint:
    """One side of a connection. Concrete: RDMA or IPoIB."""

    #: Whether ``send(..., one_sided=True)`` bypasses the peer's CPU.
    supports_one_sided = False
    #: Called with each :class:`Message` as it arrives, in place of the
    #: inbox: what a consumer that would only loop on ``recv()`` installs
    #: instead of a process. ``None`` buffers into :attr:`inbox`.
    receiver: Optional[Callable[[Message], None]] = None
    #: Called with the in-flight :class:`Message` of each polled write
    #: the peer sends (:meth:`RdmaEndpoint.write_polled`), at the instant
    #: it is sent, in place of its delivery. ``None``: polled writes
    #: arrive like any other message.
    poller: Optional[Callable[[Message], None]] = None
    #: The instant this socket's kernel receive falls idle, once
    #: :meth:`IPoIBEndpoint.listen` made the receiver pay it; None while
    #: the consumer charges ``msg.recv_cpu`` itself (a server worker's
    #: pickup) or reads through :meth:`recv`.
    rx_free_at: Optional[float] = None
    _inbox: Optional[Mailbox] = None

    def __init__(self, sim: Simulator, nic):
        self.sim = sim
        self.nic = nic
        self.params: LinkParams = nic.params
        self.peer: "Endpoint" = None  # type: ignore[assignment]

    @property
    def inbox(self) -> Mailbox:
        """Messages that arrived while no :attr:`receiver` was installed,
        in arrival order, for :meth:`recv`. Created on first use — by a
        ``recv()`` or by such a message — so an endpoint whose consumer
        is a receiver (every server endpoint, every client endpoint)
        never allocates one."""
        inbox = self._inbox
        if inbox is None:
            # Mailbox, not Store: delivery never blocks and never filters.
            inbox = self._inbox = Mailbox(self.sim)
        return inbox

    def recv(self):
        """Event producing the next :class:`Message` from the inbox."""
        return self.inbox.get()

    def arrive(self, msg: Message) -> None:
        """Hand a delivered message to its consumer."""
        (self.receiver or self.inbox.put)(msg)


class RdmaEndpoint(Endpoint):
    """Endpoint carried over RC verbs.

    Two-sided sends reach the peer with the (small) verbs receive CPU
    attached; one-sided sends (RDMA writes) land with zero receive
    CPU — the peer discovers them by polling memory, as RDMA-Memcached's
    communication engine does.
    """

    supports_one_sided = True

    def send(self, payload: Any, nbytes: int, one_sided: bool = False,
             at: Optional[float] = None) -> Message:
        """Transfer ``nbytes`` to the peer; ``payload`` rides along.
        ``at`` is the send instant, now or later (see
        :meth:`~repro.net.fabric.NIC.transmit`)."""
        peer = self.peer
        return self.nic.transmit(
            peer, nbytes, payload=payload, one_sided=one_sided,
            recv_cpu=0.0 if one_sided else peer.params.cpu_recv, at=at)

    def write_polled(self, payload: Any, nbytes: int) -> Message:
        """A one-sided write the peer polls for instead of being woken
        by (a flag in its memory): the pipe time and counters of any
        write, but no event at its arrival. The peer's :attr:`poller`
        is handed the in-flight message now and reads its ``delivered``
        milestone if and when it cares; a peer without a poller gets
        the write delivered like any other message."""
        peer = self.peer
        poller = peer.poller
        if poller is None:
            return self.send(payload, nbytes, one_sided=True)
        msg = self.nic.transmit(peer, nbytes, payload=payload,
                                one_sided=True, polled=True)
        poller(msg)
        return msg


class IPoIBEndpoint(Endpoint):
    """One side of an IPoIB socket. IPoIB cannot bypass the remote CPU,
    which is exactly the cost the paper's IPoIB-Mem baseline pays."""

    def listen(self, receiver: Callable[[Message], None]) -> None:
        """Install ``receiver`` behind the socket's kernel receive: it is
        called with each message once that message's ``cpu_recv`` is
        spent, in send order, where a receive loop would take it."""
        self.receiver = receiver
        self.rx_free_at = 0.0

    def send(self, payload: Any, nbytes: int, one_sided: bool = False,
             at: Optional[float] = None) -> Message:
        """Stream ``nbytes`` to the peer, sent ``at`` (default: now; see
        :meth:`~repro.net.fabric.NIC.transmit`). ``one_sided`` silently
        degrades to a stream send: TCP always involves the remote CPU
        (that is the point of this model)."""
        peer = self.peer
        return self.nic.transmit(peer, nbytes, payload=payload,
                                 recv_cpu=peer.params.cpu_recv, at=at)


def _connect(cls, sim: Simulator, node_a: Node, node_b: Node,
             params: LinkParams) -> Tuple[Any, Any]:
    ep_a = cls(sim, node_a.nic(params))
    ep_b = cls(sim, node_b.nic(params))
    ep_a.peer, ep_b.peer = ep_b, ep_a
    return ep_a, ep_b


def connect_rdma(sim: Simulator, node_a: Node, node_b: Node,
                 params: LinkParams = FDR_RDMA) -> Tuple[RdmaEndpoint, RdmaEndpoint]:
    """Create a connected pair of RDMA endpoints between two nodes."""
    return _connect(RdmaEndpoint, sim, node_a, node_b, params)


def connect_ipoib(sim: Simulator, node_a: Node, node_b: Node,
                  params: LinkParams = FDR_IPOIB
                  ) -> Tuple[IPoIBEndpoint, IPoIBEndpoint]:
    """Create a connected IPoIB socket between two nodes."""
    return _connect(IPoIBEndpoint, sim, node_a, node_b, params)

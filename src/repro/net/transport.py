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
is sent (``wire_at`` / ``delivered_at``); ``delivered`` is the one event
it costs — the frame is handed to the peer's receiver when it pops — and
``on_wire`` is a timer created only for a caller that asks.

The verbs-level :class:`~repro.net.rdma.QueuePair` API remains available
for applications that want raw RDMA; these endpoints charge exactly the
same wire and CPU costs but hand frames straight to the peer endpoint's
receiver (or, without one, its inbox), which is how the Memcached
runtime consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.net.fabric import Message, Node
from repro.net.ipoib import Delivery, IPoIBConnection, IPoIBEndpoint
from repro.net.params import FDR_IPOIB, FDR_RDMA, LinkParams
from repro.sim import Mailbox, Simulator


class Endpoint:
    """Abstract one side of a connection. Concrete: RDMA or IPoIB."""

    sim: Simulator
    params: LinkParams
    #: Called with each :class:`Delivery` as it arrives, in place of the
    #: inbox: what a consumer that would only loop on ``recv()`` installs
    #: instead of a process. ``None`` buffers into :attr:`inbox`.
    receiver: Optional[Callable[[Delivery], None]] = None
    _inbox: Optional[Mailbox] = None

    def send(self, payload: Any, nbytes: int, one_sided: bool = False) -> Message:
        """Transfer ``nbytes`` to the peer; ``payload`` rides along."""
        raise NotImplementedError

    @property
    def inbox(self) -> Mailbox:
        """Frames that arrived while no :attr:`receiver` was installed,
        in arrival order, for :meth:`recv`. Created on first use — by a
        ``recv()`` or by such a frame — so an endpoint whose consumer is
        a receiver (every server endpoint, every one-sided client
        endpoint) never allocates one."""
        inbox = self._inbox
        if inbox is None:
            # Mailbox, not Store: delivery never blocks and never filters.
            inbox = self._inbox = Mailbox(self.sim)
        return inbox

    def recv(self):
        """Event producing the next :class:`Delivery` from the inbox."""
        return self.inbox.get()

    @property
    def supports_one_sided(self) -> bool:
        raise NotImplementedError


@dataclass(slots=True)
class _RdmaEpFrame:
    """Self-routing frame for endpoint-level RDMA transfers."""

    dst: "RdmaEndpoint"
    payload: Any
    one_sided: bool

    def deliver(self, msg: Message) -> None:
        # msg.recv_cpu was computed at send time (0.0 for one-sided);
        # re-deriving it here walked dst.params per delivery.
        dst = self.dst
        (dst.receiver or dst.inbox.put)(
            Delivery(payload=self.payload, nbytes=msg.nbytes,
                     recv_cpu=msg.recv_cpu, one_sided=self.one_sided))


class RdmaEndpoint(Endpoint):
    """Endpoint carried over RC verbs.

    Two-sided sends reach the peer with the (small) verbs receive CPU
    attached; one-sided sends (RDMA writes) land with zero receive
    CPU — the peer discovers them by polling memory, as RDMA-Memcached's
    communication engine does.
    """

    def __init__(self, sim: Simulator, nic):
        self.sim = sim
        self.nic = nic
        self.params = nic.params
        self.peer: "RdmaEndpoint" = None  # type: ignore[assignment]

    def send(self, payload: Any, nbytes: int, one_sided: bool = False) -> Message:
        frame = _RdmaEpFrame(dst=self.peer, payload=payload, one_sided=one_sided)
        return self.nic.transmit(self.peer.nic, nbytes, payload=frame,
                                 one_sided=one_sided,
                                 recv_cpu=0.0 if one_sided else self.peer.params.cpu_recv)

    @property
    def supports_one_sided(self) -> bool:
        return True


def connect_rdma(sim: Simulator, node_a: Node, node_b: Node,
                 params: LinkParams = FDR_RDMA) -> Tuple[RdmaEndpoint, RdmaEndpoint]:
    """Create a connected pair of RDMA endpoints between two nodes."""
    ep_a = RdmaEndpoint(sim, node_a.nic(params))
    ep_b = RdmaEndpoint(sim, node_b.nic(params))
    ep_a.peer, ep_b.peer = ep_b, ep_a
    return ep_a, ep_b


def connect_ipoib(sim: Simulator, node_a: Node, node_b: Node,
                  params: LinkParams = FDR_IPOIB
                  ) -> Tuple[IPoIBEndpoint, IPoIBEndpoint]:
    """Create a connected IPoIB socket between two nodes; its two
    :class:`~repro.net.ipoib.IPoIBEndpoint` sides speak the
    :class:`Endpoint` interface as they are."""
    conn = IPoIBConnection(sim, node_a.nic(params), node_b.nic(params))
    return conn.a, conn.b

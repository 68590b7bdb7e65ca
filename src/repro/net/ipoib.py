"""IP-over-InfiniBand stream transport.

Models a TCP connection running over the IB HCA in IPoIB mode: every
message crosses the kernel stack on both ends (``cpu_send``/``cpu_recv``
from :data:`repro.net.params.FDR_IPOIB`), is segmented at the IPoIB MTU,
and sees roughly a third of the native link bandwidth. There are no
one-sided operations.

A socket whose consumer pays the kernel receive (:meth:`IPoIBEndpoint
.listen`) keeps it as a clock: the receive is serial CPU per socket and
its time is known when the peer sends, so each frame is handed over
``cpu_recv`` after it arrived and the frame before it was received (see
:mod:`repro.net.fabric`). The clock advances in send order, so a stream
socket never reorders: frames reach the receiver in the order they were
sent, even when a later one arrives first (a ``link_degrade`` restored
mid-batch shortens the latency of what is sent after it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.net.fabric import Message, NIC
from repro.sim import Mailbox, Simulator


@dataclass(slots=True)
class Delivery:
    """What a receiver pulls out of its inbox."""

    payload: Any
    nbytes: int
    #: Kernel CPU the receiving application must burn to pick this up.
    recv_cpu: float
    #: True when the bytes arrived without remote CPU involvement.
    one_sided: bool = False


@dataclass(slots=True)
class _StreamFrame:
    dst: "IPoIBEndpoint"
    payload: Any

    def deliver(self, msg: Message) -> None:
        self.dst._on_delivery(self, msg)


class IPoIBEndpoint:
    """One side of an IPoIB socket (duck-types
    :class:`repro.net.transport.Endpoint`)."""

    #: IPoIB cannot bypass the remote CPU, which is exactly the cost the
    #: paper's IPoIB-Mem baseline pays.
    supports_one_sided = False

    def __init__(self, sim: Simulator, nic: NIC):
        self.sim = sim
        self.nic = nic
        #: See :attr:`repro.net.transport.Endpoint.receiver`.
        self.receiver: Optional[Callable[[Delivery], None]] = None
        #: The instant this socket's kernel receive falls idle, once
        #: :meth:`listen` made the receiver pay it; None while the
        #: consumer charges ``Delivery.recv_cpu`` itself (a server
        #: worker's pickup) or reads through :meth:`recv`.
        self.rx_free_at: Optional[float] = None
        self._inbox: Optional[Mailbox] = None
        self.peer: "IPoIBEndpoint" = None  # type: ignore[assignment]

    @property
    def params(self):
        return self.nic.params

    @property
    def inbox(self) -> Mailbox:
        """Created on first use; see
        :attr:`repro.net.transport.Endpoint.inbox`."""
        inbox = self._inbox
        if inbox is None:
            inbox = self._inbox = Mailbox(self.sim)
        return inbox

    def listen(self, receiver: Callable[[Delivery], None]) -> None:
        """Install ``receiver`` behind the socket's kernel receive: it is
        called with each frame once that frame's ``cpu_recv`` is spent,
        in send order, where a receive loop would take it."""
        self.receiver = receiver
        self.rx_free_at = 0.0

    def send(self, payload: Any, nbytes: int, one_sided: bool = False,
             at: Optional[float] = None) -> Message:
        """Stream ``nbytes`` to the peer, sent ``at`` (default: now; see
        :meth:`~repro.net.fabric.NIC.transmit`). ``one_sided`` silently
        degrades to a stream send: TCP always involves the remote CPU
        (that is the point of this model)."""
        peer = self.peer
        frame = _StreamFrame(dst=peer, payload=payload)
        return self.nic.transmit(
            peer.nic, nbytes, payload=frame, recv_cpu=peer.params.cpu_recv,
            rx=None if peer.rx_free_at is None else peer, at=at)

    def recv(self):
        """Event producing the next :class:`Delivery`."""
        return self.inbox.get()

    def _on_delivery(self, frame: _StreamFrame, msg: Message) -> None:
        (self.receiver or self.inbox.put)(
            Delivery(payload=frame.payload, nbytes=msg.nbytes,
                     recv_cpu=self.params.cpu_recv, one_sided=False))


class IPoIBConnection:
    """A connected pair of IPoIB endpoints (one TCP socket)."""

    def __init__(self, sim: Simulator, nic_a: NIC, nic_b: NIC):
        self.a = IPoIBEndpoint(sim, nic_a)
        self.b = IPoIBEndpoint(sim, nic_b)
        self.a.peer = self.b
        self.b.peer = self.a

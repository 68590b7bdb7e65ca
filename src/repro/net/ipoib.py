"""IP-over-InfiniBand stream transport.

Models a TCP connection running over the IB HCA in IPoIB mode: every
message crosses the kernel stack on both ends (``cpu_send``/``cpu_recv``
from :data:`repro.net.params.FDR_IPOIB`), is segmented at the IPoIB MTU,
and sees roughly a third of the native link bandwidth. There are no
one-sided operations.
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

    def send(self, payload: Any, nbytes: int, one_sided: bool = False) -> Message:
        """Stream ``nbytes`` to the peer. ``one_sided`` silently degrades
        to a stream send: TCP always involves the remote CPU (that is the
        point of this model)."""
        frame = _StreamFrame(dst=self.peer, payload=payload)
        return self.nic.transmit(self.peer.nic, nbytes, payload=frame,
                                 recv_cpu=self.peer.params.cpu_recv)

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

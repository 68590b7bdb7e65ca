"""Network substrate: simulated InfiniBand fabric with RDMA and IPoIB.

The model is a star fabric (single full-bisection switch, matching the
paper's rack-level topology on SDSC Comet). Each node owns a NIC whose
transmit side serializes messages at link bandwidth; propagation adds a
fixed one-way latency. A transfer is one :class:`Message`, from the
sender's NIC to the consumer, which is handed that same object. Two
transports run on top (:mod:`repro.net.transport`):

* :class:`~repro.net.transport.RdmaEndpoint` — the RDMA runtime the
  Memcached protocol runs on: two-sided header sends with
  sub-microsecond receive CPU, and one-sided value writes (after a
  receive-buffer credit) and polled BufferAcks that cost the remote CPU
  nothing.
* :class:`~repro.net.transport.IPoIBEndpoint` — TCP/IP-over-InfiniBand
  streams with kernel stack overheads and reduced effective bandwidth.
"""

from repro.net.fabric import Fabric, Message, NIC, Node
from repro.net.params import FDR_IPOIB, FDR_RDMA, LinkParams

__all__ = [
    "Fabric",
    "Node",
    "NIC",
    "Message",
    "LinkParams",
    "FDR_RDMA",
    "FDR_IPOIB",
]

"""Closed-form latency predictions for uncontended operations.

For a single blocking operation on an idle in-memory server, every cost
in the pipeline is deterministic, so the end-to-end latency has an
exact closed form. These predictors mirror the simulated pipeline step
by step; the validation tests assert the simulator matches them to
floating-point precision. That pins the whole stack's cost model: any
accidental change to a path (an extra hop, a dropped CPU charge, a
mis-ordered wait) breaks the equality.

Only the uncontended in-memory fast path is modeled — with queueing,
SSD devices, and page caches the simulator is the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.client.client import ClientConfig
from repro.net.params import FDR_IPOIB, FDR_RDMA, LinkParams
from repro.server.protocol import REQUEST_HEADER_BYTES, RESPONSE_HEADER_BYTES
from repro.server.server import ServerCosts


@dataclass(frozen=True)
class PathParams:
    """Everything the closed forms need."""

    net: LinkParams = FDR_RDMA
    costs: ServerCosts = ServerCosts()
    client: ClientConfig = ClientConfig()

    @property
    def rdma(self) -> bool:
        return self.net.name.startswith("rdma")


def _tx(net: LinkParams, nbytes: int) -> float:
    """NIC occupancy for one message (CPU + serialization)."""
    return net.cpu_send + net.serialize_time(nbytes)


def predict_set_latency(value_length: int, key_length: int,
                        p: PathParams = PathParams()) -> float:
    """Blocking memcached_set on an idle in-memory server."""
    net, costs, cli = p.net, p.costs, p.client
    header = REQUEST_HEADER_BYTES + key_length
    t = cli.api_overhead + cli.engine_cpu
    if p.rdma:
        # Header (two-sided) then value (one-sided RDMA write) share the
        # client NIC; the worker needs the header (+recv cpu, +parse)
        # AND the value before copying it out.
        t_header_done = t + _tx(net, header) + net.latency
        t_value_done = t + _tx(net, header) + _tx(net, value_length) \
            + net.latency
        t_worker_ready = t_header_done + net.cpu_recv + costs.parse
        t = max(t_worker_ready, t_value_done)
    else:
        # One stream message carries header+value; the worker pays the
        # kernel receive cost before parsing.
        t = t + _tx(net, header + value_length) + net.latency
        t = t + net.cpu_recv + costs.parse
    t += value_length / costs.memcpy_bandwidth
    t += costs.slab_alloc_cpu + costs.lru_update + costs.response_prep
    # Response: small status message; one-sided on RDMA (no client CPU),
    # a stream message on IPoIB (the client socket's kernel receive).
    t += _tx(net, RESPONSE_HEADER_BYTES) + net.latency
    if not p.rdma:
        t += net.cpu_recv
    return t


def predict_get_latency(value_length: int, key_length: int,
                        p: PathParams = PathParams()) -> float:
    """Blocking memcached_get hit on an idle in-memory server."""
    net, costs, cli = p.net, p.costs, p.client
    header = REQUEST_HEADER_BYTES + key_length
    t = cli.api_overhead + cli.engine_cpu
    t += _tx(net, header) + net.latency  # request on the wire
    t += net.cpu_recv + costs.parse      # worker picks it up
    t += costs.hash_lookup + costs.lru_update + costs.response_prep
    # Value travels with the response (RDMA write into the client
    # buffer, or a stream message on IPoIB).
    t += _tx(net, RESPONSE_HEADER_BYTES + value_length) + net.latency
    if not p.rdma:
        t += net.cpu_recv
    return t


RDMA_PATH = PathParams(net=FDR_RDMA)
IPOIB_PATH = PathParams(net=FDR_IPOIB)

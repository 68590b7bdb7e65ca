"""The server worker's CPU stages against their closed form.

On a 1x1 cluster nothing queues, so every instant a worker reaches is a
plain sum of the instant it picked the request up and the stage costs
it sleeps through, added one stage at a time. Drawing random
``ServerCosts`` and value sizes makes those sums arbitrary floats, so
the check is exact: a worker that sums a stage in a different order or
drops one (``now + (a + b)`` is not ``(now + a) + b``) fails it. The
sequential sum is the reference, not a second implementation, as in
``tests/net/test_fabric.py::TestTransmitClock``.

Checked for a SET and a GET on each SET path — a value written over
RDMA to a server without early ack (``RDMA_MEM``), the same with early
ack (``H_RDMA_OPT_NONB_I``), and a value inline with the header over
IPoIB (``FATCACHE``): the server-side stage boundaries of the
request's causal profile, the last of which is the response's send.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_cluster, profiles
from repro.client.client import MemcachedClient
from repro.core.cluster import ClusterSpec
from repro.server.protocol import Request, Response, ValueArrival
from repro.server.server import MemcachedServer, ServerCosts
from repro.units import KB, MB

KEY = b"clock-key"
SERVER_STAGES = ("server_cpu", "index", "ram", "ssd")


def server_side(span) -> bool:
    """A worker's stage span (its dotted Fig 2 names included), not the
    device I/O nested under one."""
    return span[0] != "ssd.io" and span[0].partition(".")[0] in SERVER_STAGES

# Picosecond counts scaled by an inexact 1e-12: every cost is a float
# with a full mantissa, so sums that are grouped differently round apart.
cost = st.integers(10_000, 5_000_000).map(lambda ps: ps * 1e-12)
costs = st.builds(ServerCosts, parse=cost, hash_lookup=cost,
                  lru_update=cost, slab_alloc_cpu=cost, response_prep=cost,
                  memcpy_bandwidth=st.integers(1_000, 20_000).map(lambda mb: mb * 1e6))


def _run(profile, server_costs, value_length):
    """One SET then one GET of the same key. Returns what the server
    received (``(instant, recv_cpu, payload)``), the responses' payloads
    and the two requests' server-side profile spans."""
    received, responses = [], []
    receive, on_response = MemcachedServer._receive, MemcachedClient._on_response

    def spy_receive(server, endpoint, delivery):
        received.append((server.sim.now, delivery.recv_cpu, delivery.payload))
        receive(server, endpoint, delivery)

    def spy_response(client, conn, delivery):
        responses.append(delivery.payload)
        on_response(client, conn, delivery)

    # Both receivers are bound when the cluster wires its connections.
    with mock.patch.object(MemcachedServer, "_receive", spy_receive), \
            mock.patch.object(MemcachedClient, "_on_response", spy_response):
        cluster = build_cluster(profile, spec=ClusterSpec(
            server_mem=32 * MB, ssd_limit=64 * MB, costs=server_costs,
            profile=True, profile_keep_traces=True))
        client, sim = cluster.clients[0], cluster.sim

        def app():
            yield from client.set(KEY, value_length)
            yield from client.get(KEY)

        sim.run(until=sim.spawn(app()))
    spans = [[span for span in trace[4] if server_side(span)]
             for trace in cluster.obs.profiler.traces]
    return received, responses, spans


@settings(max_examples=60, deadline=None)
@given(profile=st.sampled_from([profiles.RDMA_MEM, profiles.H_RDMA_OPT_NONB_I,
                                profiles.FATCACHE]),
       c=costs, value_length=st.integers(1, 256 * KB))
def test_set_and_get_stages_are_the_sequential_sums(profile, c, value_length):
    received, responses, (set_spans, get_spans) = _run(profile, c,
                                                       value_length)
    headers = [(t, recv) for t, recv, p in received if isinstance(p, Request)]
    values = [t for t, _recv, p in received if isinstance(p, ValueArrival)]
    (t_set, recv_set), (t_get, recv_get) = headers
    set_resp, get_resp = (r for r in responses if isinstance(r, Response))
    assert (set_resp.status, get_resp.status) == ("STORED", "HIT")

    # SET: the worker picks the header up on arrival; an RDMA-written
    # value is copied out once both it and the parsed header are there.
    parsed = (t_set + recv_set) + c.parse
    copy_from = max(parsed, values[0]) if values else parsed
    copied = copy_from + value_length / c.memcpy_bandwidth
    allocated = copied + c.slab_alloc_cpu
    updated = allocated + c.lru_update
    sent = updated + c.response_prep
    assert set_spans == [("server_cpu", t_set, parsed),
                         ("ram", copy_from, copied),
                         ("index.slab_alloc", copied, allocated),
                         ("index.cache_update", allocated, updated),
                         ("server_cpu.response", updated, sent)]

    # GET, a RAM hit: lookup, LRU update, response.
    parsed = (t_get + recv_get) + c.parse
    looked_up = parsed + c.hash_lookup
    updated = looked_up + c.lru_update
    sent = updated + c.response_prep
    assert get_spans == [("server_cpu", t_get, parsed),
                         ("index.cache_check_load", parsed, looked_up),
                         ("index.cache_update", looked_up, updated),
                         ("server_cpu.response", updated, sent)]

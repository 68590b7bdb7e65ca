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
The other commands that hit in RAM and update the LRU — a ``touch``,
a ``gat``, and an ``incr`` that creates its counter and one that finds
it — are checked from their pickup to their send.
An RDMA value can land while the worker still parses the header, at
the very instant the parse ends, or after it; each example runs all
three, setting the parse cost to make each happen, and the run must
show it.
"""

import dataclasses
import math
from unittest import mock

from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro import build_cluster, profiles
from repro.client.client import MemcachedClient
from repro.core.cluster import ClusterSpec
from repro.server.protocol import Request, Response, ValueArrival
from repro.server.server import MemcachedServer, ServerCosts
from repro.units import KB, MB

KEY = b"clock-key"
COUNTER = b"clock-counter"
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
    """One SET then one GET of the same key, a touch and a gat of it,
    and two incrs of a counter (the first creates it). Returns what the
    server received (``(instant, recv_cpu, payload)``: a frame as it is
    delivered, an RDMA-written value as it lands), the responses'
    payloads and each request's server-side profile spans."""
    received, responses = [], []
    receive, on_response = MemcachedServer._receive, MemcachedClient._on_response
    poll_value = MemcachedServer._poll_value

    def spy_receive(server, endpoint, delivery):
        received.append((server.sim.now, delivery.recv_cpu, delivery.payload))
        receive(server, endpoint, delivery)

    def spy_poll_value(server, endpoint, arrival, msg):
        # Handed over as it is sent; it lands at its delivered milestone.
        received.append((msg.delivered_at, 0.0, arrival))
        poll_value(server, endpoint, arrival, msg)

    def spy_response(client, conn, delivery):
        responses.append(delivery.payload)
        on_response(client, conn, delivery)

    # The receivers and the poller are bound when the cluster wires its
    # connections.
    with mock.patch.object(MemcachedServer, "_receive", spy_receive), \
            mock.patch.object(MemcachedServer, "_poll_value", spy_poll_value), \
            mock.patch.object(MemcachedClient, "_on_response", spy_response):
        cluster = build_cluster(profile, spec=ClusterSpec(
            server_mem=32 * MB, ssd_limit=64 * MB, costs=server_costs,
            profile=True, profile_keep_traces=True))
        client, sim = cluster.clients[0], cluster.sim

        def app():
            yield from client.set(KEY, value_length)
            yield from client.get(KEY)
            yield from client.touch(KEY, 60.0)
            yield from client.gat(KEY, 60.0)
            yield from client.incr(COUNTER, 1, initial=0)
            yield from client.incr(COUNTER, 1)

        sim.run(until=sim.spawn(app()))
    spans = [[span for span in trace[4] if server_side(span)]
             for trace in cluster.obs.profiler.traces]
    return received, responses, spans


#: Where an RDMA value lands relative to the end of its header's parse.
ARRIVALS = ("during-parse", "at-parse-end", "after-parse-end")


def _header_and_value(profile, value_length):
    """``(parse start, value arrival)`` of the first SET: neither
    depends on the server's CPU costs."""
    received, _, _ = _run(profile, ServerCosts(), value_length)
    t, recv = next((t, recv) for t, recv, p in received
                   if isinstance(p, Request))
    value = next(t for t, _recv, p in received if isinstance(p, ValueArrival))
    return t + recv, value


def _parse_cost(arrival, start, value, extra, fraction):
    """A parse cost that makes the value land ``arrival`` relative to
    the parse end ``start + parse``."""
    gap = value - start  # positive: the value trails the header
    if arrival == "during-parse":
        return gap + extra
    if arrival == "after-parse-end":
        return gap * fraction
    parse = gap
    while start + parse != value:  # step to the float that lands on it
        parse = math.nextafter(parse, math.inf if start + parse < value
                               else -math.inf)
    return parse


@settings(max_examples=30, deadline=None)
@given(rdma=st.sampled_from([profiles.RDMA_MEM, profiles.H_RDMA_OPT_NONB_I]),
       c=costs, value_length=st.integers(1, 256 * KB), extra=cost,
       fraction=st.integers(1, 999).map(lambda n: n / 1000))
def test_set_and_get_stages_are_the_sequential_sums(rdma, c, value_length,
                                                    extra, fraction):
    start, value = _header_and_value(rdma, value_length)
    for arrival in ARRIVALS:
        note(f"arrival={arrival}")
        _check_stages(arrival, rdma, dataclasses.replace(
            c, parse=_parse_cost(arrival, start, value, extra, fraction)),
            value_length)
    note("arrival=inline")
    _check_stages("inline", profiles.FATCACHE, c, value_length)


def _check_stages(arrival, profile, c, value_length):
    """The SET's and the GET's server-side spans are the sequential sums
    of their stage costs, and the SET's value landed as ``arrival``
    says."""
    received, responses, spans = _run(profile, c, value_length)
    set_spans, get_spans, *lru_spans = spans
    headers = [(t, recv) for t, recv, p in received if isinstance(p, Request)]
    values = [t for t, _recv, p in received if isinstance(p, ValueArrival)]
    (t_set, recv_set), (t_get, recv_get), *lru_headers = headers
    statuses = [r.status for r in responses if isinstance(r, Response)]
    assert statuses == ["STORED", "HIT", "TOUCHED", "HIT", "STORED", "STORED"]

    # SET: the worker picks the header up on arrival; an RDMA-written
    # value is copied out once both it and the parsed header are there.
    parsed = (t_set + recv_set) + c.parse
    if arrival == "inline":
        assert values == []
    else:
        landed = {"during-parse": values[0] < parsed,
                  "at-parse-end": values[0] == parsed,
                  "after-parse-end": values[0] > parsed}
        assert landed[arrival], (values[0], parsed)
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

    # touch, gat and incr, each a RAM hit: the lookup rode the pickup
    # timer, then the LRU update and the response.
    assert len(lru_headers) == len(lru_spans) == 4
    for (t, recv), req_spans in zip(lru_headers, lru_spans):
        parsed = (t + recv) + c.parse
        updated = (parsed + c.hash_lookup) + c.lru_update
        sent = updated + c.response_prep
        assert req_spans[0] == ("server_cpu", t, parsed)
        assert req_spans[-1] == ("server_cpu.response", updated, sent)

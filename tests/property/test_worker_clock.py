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

SSD-tier GETs on the adaptive design are checked the same way, from
their pickup to their send: a page-cache hit under mmap and under
cached I/O, a read from an asynchronous flush's staging buffer, and a
page-cache miss under each scheme that waits for the device.
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
from repro.sim.events import Process
from repro.storage.params import NVME_SSD, SATA_SSD, PageCacheParams
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
    server received (``(instant, recv_cpu, payload)``: a message as it is
    delivered, an RDMA-written value as it lands), the responses'
    payloads and each request's server-side profile spans."""

    def app(cluster):
        client = cluster.clients[0]
        yield from client.set(KEY, value_length)
        yield from client.get(KEY)
        yield from client.touch(KEY, 60.0)
        yield from client.gat(KEY, 60.0)
        yield from client.incr(COUNTER, 1, initial=0)
        yield from client.incr(COUNTER, 1)

    return _run_app(profile, ClusterSpec(
        server_mem=32 * MB, ssd_limit=64 * MB, costs=server_costs,
        profile=True, profile_keep_traces=True), app)


def _run_app(profile, spec, app, setup=None):
    """Run ``app(cluster)`` on a 1x1 cluster built from ``spec`` (after
    ``setup(cluster)``, if given); returns what :func:`_run` does."""
    received, responses = [], []
    receive, on_response = MemcachedServer._receive, MemcachedClient._on_response
    poll_value = MemcachedServer._poll_value

    def spy_receive(server, msg):
        received.append((server.sim.now, msg.recv_cpu, msg.payload))
        receive(server, msg)

    def spy_poll_value(server, msg):
        # Handed over as it is sent; it lands at its delivered milestone.
        received.append((msg.delivered_at, 0.0, msg.payload))
        poll_value(server, msg)

    def spy_response(client, conn, msg):
        responses.append(msg.payload)
        on_response(client, conn, msg)

    # The receivers and the poller are bound when the cluster wires its
    # connections.
    with mock.patch.object(MemcachedServer, "_receive", spy_receive), \
            mock.patch.object(MemcachedServer, "_poll_value", spy_poll_value), \
            mock.patch.object(MemcachedClient, "_on_response", spy_response):
        cluster = build_cluster(profile, spec=spec)
        if setup is not None:
            setup(cluster)
        sim = cluster.sim
        sim.run(until=sim.spawn(app(cluster)))
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


# -- SSD-tier GETs -------------------------------------------------------------

SSD_KEY = b"ssd-0"

#: Where an SSD-tier GET finds its value, and the I/O scheme the adaptive
#: design reads the value's slab class through (a staging buffer is read
#: by no scheme).
SSD_CASES = {"mmap-hit": "mmap", "cached-hit": "cached",
             "staging-hit": None,
             "mmap-miss": "mmap", "cached-miss": "cached"}

pagecache_costs = st.builds(
    PageCacheParams, syscall_overhead=cost, fault_overhead=cost,
    memcpy_bandwidth=st.integers(1_000, 20_000).map(lambda mb: mb * 1e6))


def disk_offset(item):
    """Where an item on the SSD starts: its chunk of its slot."""
    return item.disk_slot.offset + item.chunk_index * item.disk_slot.chunk_size


def _spill_first_key(cluster, value_length):
    """Preload keys until the first one's slab page spills to the SSD.
    The spilled page is recycled into the same class, so the GET's
    promotion finds a free chunk without sleeping."""
    manager = cluster.servers[0].manager
    cluster.preload([(SSD_KEY, value_length)])
    i = 1
    while not manager.table[SSD_KEY].on_ssd:
        cluster.preload([(b"ssd-%d" % i, value_length)])
        i += 1


def _ssd_get(case, c, pc, value_length):
    """One SSD-tier GET of ``SSD_KEY`` as ``case`` names it. Returns the
    GET's header ``(instant, recv_cpu)``, its server-side spans, the
    item, the item's offset on the SSD and the device read it waited
    for (bytes, or 0)."""
    staging = case == "staging-hit"
    spec = ClusterSpec(server_mem=2 * MB, ssd_limit=64 * MB, costs=c,
                       pagecache=pc, async_flush=staging, profile=True,
                       profile_keep_traces=True)
    got = {}

    def app(cluster):
        client = cluster.clients[0]
        manager = cluster.servers[0].manager
        i = 0
        while staging and not (SSD_KEY in manager.table
                               and manager.table[SSD_KEY].on_ssd):
            # SETs until the first key's page is flushed: its slot is
            # written in the background, so the value is still staged.
            yield from client.set(b"ssd-%d" % i, value_length)
            i += 1
        item = got["item"] = manager.table[SSD_KEY]
        assert item.disk_slot.scheme_name == (SSD_CASES[case] or
                                              item.disk_slot.scheme_name)
        offset = got["offset"] = disk_offset(item)
        if case.endswith("-hit") and not staging:
            yield from manager.pagecache.read(offset, item.total_size)
        device_bytes = manager.device.stats.bytes_read
        yield from client.get(SSD_KEY)
        got["device_bytes"] = manager.device.stats.bytes_read - device_bytes
        assert item.in_ram  # promoted
        assert item.disk_slot is None
        assert manager.stats.buffer_served_reads == staging

    received, responses, spans = _run_app(
        profiles.H_RDMA_OPT_BLOCK, spec, app,
        None if staging else lambda cl: _spill_first_key(cl, value_length))
    assert [r.status for r in responses if isinstance(r, Response)][-1] == "HIT"
    header = [(t, recv) for t, recv, p in received if isinstance(p, Request)][-1]
    return header, spans[-1], got["item"], got["offset"], got["device_bytes"]


@settings(max_examples=15, deadline=None)
@given(c=costs, pc=pagecache_costs, small=st.integers(1 * KB, 24 * KB),
       large=st.integers(40 * KB, 200 * KB))
def test_ssd_tier_gets_are_the_sequential_sums(c, pc, small, large):
    """An SSD-tier GET served from a warm page cache (under mmap and
    under cached I/O), from an asynchronous flush's staging buffer, and
    from the device through a cold page cache: lookup, the scheme's
    syscall or page faults, the device read, the memcpy, the LRU update
    and the response prep, summed one stage at a time."""
    for case, scheme in SSD_CASES.items():
        note(f"case={case}")
        value_length = small if scheme == "mmap" else large
        (t, recv), spans, item, offset, device_bytes = _ssd_get(
            case, c, pc, value_length)
        nbytes = item.total_size
        parsed = (t + recv) + c.parse
        looked_up = parsed + c.hash_lookup
        loaded = looked_up
        if scheme == "cached":
            loaded = loaded + pc.syscall_overhead
        if case.endswith("-miss"):
            pages = -(-(offset + nbytes) // pc.page_size) \
                - offset // pc.page_size
            assert device_bytes == pages * pc.page_size <= SATA_SSD.pipe_quantum
            if scheme == "mmap":
                loaded = loaded + pages * pc.fault_overhead
            loaded = ((loaded + SATA_SSD.read_latency)
                      + device_bytes / SATA_SSD.read_bandwidth)
        else:
            assert device_bytes == 0
        loaded = loaded + nbytes / (c.memcpy_bandwidth if scheme is None
                                    else pc.memcpy_bandwidth)
        updated = loaded + c.lru_update
        sent = updated + c.response_prep
        assert spans == [("server_cpu", t, parsed),
                         ("index.cache_check_load", parsed, looked_up),
                         ("ssd.cache_check_load", looked_up, loaded),
                         ("index.cache_update", loaded, updated),
                         ("server_cpu.response", updated, sent)]


def test_concurrent_requests_each_keep_their_own_closed_form():
    """Four requests picked up at one instant by four workers of one
    server: a GET that waits for a device read (cached I/O, cold page
    cache), a GET that hits the page cache, a gat whose past deadline
    removes the item it loaded (so it updates no LRU), and an incr whose
    store sleeps through a slab flush. Each is sent at its own
    closed-form instant, and only the incr sleeps an LRU timer of its
    own: whether a load ended on CPU travels with the request, so none
    of the others' loads reaches it."""
    spec = ClusterSpec(num_clients=4, server_mem=2 * MB, ssd_limit=64 * MB,
                       device=NVME_SSD, profile=True, profile_keep_traces=True)
    value_length = 100 * KB
    got = {}

    def app(cluster):
        got["cluster"] = cluster
        manager = cluster.servers[0].manager
        on_ssd = [key for key, item in manager.table.items() if item.on_ssd]
        # Far apart in their slot: the warmed pages are not the cold's.
        cold, warm, stale = on_ssd[0], on_ssd[-2], on_ssd[-1]
        got["ranges"] = {key: (disk_offset(manager.table[key]),
                               manager.table[key].total_size)
                         for key in (cold, warm, stale)}
        for key in (warm, stale):
            yield from manager.pagecache.read(*got["ranges"][key])
        sim = cluster.sim
        c = cluster.clients
        yield sim.all_of([sim.spawn(c[0].get(cold)),
                          sim.spawn(c[1].get(warm)),
                          sim.spawn(c[2].gat(stale, 1e-9)),
                          sim.spawn(c[3].incr(COUNTER, 1, initial=0))])
        got["keys"] = cold, warm, stale

    waits = []
    resume = Process._resume

    def spy(process, event):
        if "-worker" in process.name:
            gen, chain = process._gen, []
            while gen is not None and hasattr(gen, "gi_code"):
                chain.append(gen.gi_code.co_name)
                gen = gen.gi_yieldfrom
            waits.append(tuple(chain))
        resume(process, event)

    with mock.patch.object(Process, "_resume", spy):
        received, responses, _ = _run_app(
            profiles.H_RDMA_OPT_BLOCK, spec, app,
            lambda cl: _spill_first_key(cl, value_length))
    cluster = got["cluster"]
    manager = cluster.servers[0].manager
    cold, warm, stale = got["keys"]
    assert stale not in manager.table  # the gat's past deadline removed it
    assert manager.stats.flushes == 1
    statuses = {r.op: r.status for r in responses[-4:]}
    assert statuses == {"get": "HIT", "gat": "HIT", "incr": "STORED"}

    c, pc = ServerCosts(), PageCacheParams()
    headers = {p.trace_id: (t, recv, p) for t, recv, p in received
               if isinstance(p, Request)}
    traces = {trace[0]: [s for s in trace[4] if server_side(s)]
              for trace in cluster.obs.profiler.traces}
    assert len(traces) == 4
    for trace_id, spans in traces.items():
        t, recv, request = headers[trace_id]
        looked_up = ((t + recv) + c.parse) + c.hash_lookup
        if request.op == "incr":
            # Its store slept through the flush; the LRU update and the
            # response run on from where the store ended.
            stored = spans[-2][1]
            assert stored > looked_up
            updated = stored + c.lru_update
            sent = updated + c.response_prep
            assert spans[-2:] == [("index.cache_update", stored, updated),
                                  ("server_cpu.response", updated, sent)]
            continue
        offset, nbytes = got["ranges"][request.key]
        loaded = looked_up + pc.syscall_overhead
        if request.key == cold:
            pages = (-(-(offset + nbytes) // pc.page_size)
                     - offset // pc.page_size)
            loaded = ((loaded + NVME_SSD.read_latency)
                      + pages * pc.page_size / NVME_SSD.read_bandwidth)
        loaded = loaded + nbytes / pc.memcpy_bandwidth
        expected = [("ssd.cache_check_load", looked_up, loaded)]
        updated = loaded
        if request.op == "get":
            updated = loaded + c.lru_update
            expected.append(("index.cache_update", loaded, updated))
        expected.append(("server_cpu.response", updated,
                         updated + c.response_prep))
        assert spans[2:] == expected, request.key

    lru_timers = [chain for chain in waits if chain[-1] == "_cache_update"]
    assert lru_timers == [("_worker", "_handle_counter", "_cache_update")]

"""A blocking call's client-side instants against their closed form.

A blocking entry point pays the API overhead, hands its request to the
communication engine, which spends ``engine_cpu`` on it, and then only
waits. On a 1x1 cluster with an idle NIC every instant of that path is
a sequential sum of the instant ``t0`` the call was made and the costs
it goes through, added one at a time:

    t_api_return = t0 + api_overhead
    wire_at      = ((t0 + api_overhead) + engine_cpu) + (cpu_send + serialize)

and the time the caller spends blocked is the sum of the stretches it
waits, in the order it waits them: the API overhead, then from
``t_api_return`` to the instant the call returns. With a silent server
and ``request_timeout`` set, each bounded wait starts where the one
before it ended — the first at ``t_api_return`` — so every completion
timeout, and the ``SERVER_DOWN`` completion, falls on a sum too, and
each of those waits (a timeout, a retry's backoff) is a stretch of its
own in the blocked time.
Drawing the costs as picosecond counts makes these arbitrary floats,
so the checks are exact; zero costs are drawn as well. Every blocking
entry point is checked on RDMA (with and without early ack) and IPoIB,
including the miss path's repopulating ``set``. The sequential sum is
the reference, as in ``test_worker_clock.py``.

The replication factor R is drawn too. At R=2 (a 1x2 cluster, sync
writes, healthy servers only) the primary request keeps every one of
these sums; a write's caller waits one stretch more, from the primary's
response to its copy's ack, and every copy is issued where its parent's
API overhead ends.

Under load the engine is a FIFO server whose service time is known when
a job starts, so every send instant is a recursion over the jobs in the
order they were queued,

    send_k = max(ready_k, free_{k-1}) + engine_cpu

where ``ready_k`` is where the API overhead of the job's call ends and
``free_{k-1}`` the instant the engine finished the job before: its send,
or for an RDMA SET the instant its value went, once a receive credit
was granted. Each NIC then is the Lindley recursion over the sends it
carries, in time order. Window bursts of ``iget``/``iset`` from two
clients (RDMA SETs that wait for a credit, inline IPoIB SETs) and an
``mget`` are checked against both, with the two clients on a node each
or sharing one NIC.

A non-blocking ``iset``/``iget`` returns at its call instant: its API
overhead moves the caller's clock (``client.now``), on which the
caller's next call starts, instead of being slept. Runs of them mixed
with ``wait``, ``wait_any``, ``test`` and blocking calls are checked
against the schedule of a caller that sleeps every call's overhead,
computed here: each call is made at the caller's instant ``c`` and
moves it to ``c + api_overhead`` (a blocking call on to its
completion); a wait on a request completed by ``c`` blocks for
nothing, one on a later completion blocks from ``c`` to it; a
``wait_any`` that finds nothing complete at ``c`` moves ``c`` to the
first completion. Every request's ``t_issue``, ``blocked_time`` and the
``wire_at`` of its first message (the engine and NIC recursions above,
over the schedule's ready instants) are that schedule's, and an HLC
client stamps each write at its issue instant.
"""

import dataclasses
from unittest import mock

from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro import build_cluster, profiles
from repro.client.client import MemcachedClient
from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.topology import TopologyConfig
from repro.net.fabric import NIC
from repro.server.protocol import MultiGetRequest, ValueArrival
from repro.sim import Timeout
from repro.units import KB, MB

HOT, COUNTER, ABSENT = b"hot", b"counter", b"absent"
KEYS = [b"batch%d" % i for i in range(3)]

#: The blocking entry points that go through ``_issue``: each returns
#: its request.
ISSUED = {
    "get": lambda c, n: c.get(HOT),
    "set": lambda c, n: c.set(b"set-key", n),
    "add": lambda c, n: c.add(b"add-key", n),
    "replace": lambda c, n: c.replace(HOT, n),
    "cas": lambda c, n: c.cas(HOT, n, 0),
    "delete": lambda c, n: c.delete(b"add-key"),
    "touch": lambda c, n: c.touch(HOT, 0.0),
    "incr": lambda c, n: c.incr(COUNTER, 3, initial=1),
    "decr": lambda c, n: c.decr(COUNTER, 1),
    "gat": lambda c, n: c.gat(HOT, 0.0),
    "bset": lambda c, n: c.bset(b"bset-key", n),
    "bget": lambda c, n: c.bget(HOT),
}
BUFFER_SAFE = ("bset", "bget")

ps = st.integers(10_000, 5_000_000).map(lambda n: n * 1e-12)
cost_or_zero = st.one_of(st.just(0.0), ps)


def _waited(t0, *instants):
    """The blocked time of a caller that waits from ``t0`` through each
    of ``instants`` in turn: its stretches, added one at a time."""
    blocked, start = 0.0, t0
    for t in instants:
        blocked += t - start
        start = t
    return blocked


def _down_at(start, timeout, retries, backoff):
    """Every instant a bounded wait ends, in order, for a request whose
    first wait starts at ``start`` and that nobody answers: a completion
    timeout, then per retry its backoff and the next timeout. The even
    ones are the timeouts; the last is the ``SERVER_DOWN`` instant."""
    ends = [start + timeout]
    for attempt in range(1, retries + 1):
        ends.append(ends[-1] + backoff * 2 ** (attempt - 1))
        ends.append(ends[-1] + timeout)
    return ends


@settings(max_examples=25, deadline=None)
@given(profile=st.sampled_from([profiles.RDMA_MEM, profiles.H_RDMA_OPT_NONB_B,
                                profiles.IPOIB_MEM]),
       api_overhead=cost_or_zero, engine_cpu=cost_or_zero,
       value_length=st.integers(1, 64 * KB),
       gaps=st.lists(st.integers(1, 10_000_000).map(lambda n: n * 1e-12),
                     min_size=40, max_size=40),
       healthy_timeout=st.one_of(st.none(), ps.map(lambda t: t + 1e-3)),
       timeout=ps.map(lambda t: t + 1e-4), retries=st.integers(0, 1),
       backoff=ps, penalty=cost_or_zero, replication=st.sampled_from([1, 2]))
def test_blocking_calls_are_the_sequential_sums(
        profile, api_overhead, engine_cpu, value_length, gaps,
        healthy_timeout, timeout, retries, backoff, penalty, replication):
    sent, answered, timeouts, downs, copies = [], [], [], {}, {}
    transmit, note_timeout = NIC.transmit, MemcachedClient._note_timeout
    fan_out = MemcachedClient._fan_out
    fail, on_response = (MemcachedClient._fail_server_down,
                         MemcachedClient._on_response)

    def spy_transmit(nic, *args, **kwargs):
        msg = transmit(nic, *args, **kwargs)
        sent.append((nic, msg))
        return msg

    def spy_response(client, conn, delivery):
        answered.append((client.sim.now, delivery.payload.req_id))
        on_response(client, conn, delivery)

    def spy_timeout(client, req):
        timeouts.append(client.sim.now)
        note_timeout(client, req)

    def spy_fail(client, req, count=True):
        downs.setdefault(req.req_id, client.sim.now)
        fail(client, req, count)

    def spy_fan_out(client, req, *args):
        subs = fan_out(client, req, *args)
        copies[req.req_id] = (req, subs)
        return subs

    cluster = build_cluster(profile, spec=ClusterSpec(
        topology=TopologyConfig(initial_servers=replication),
        server_mem=32 * MB, ssd_limit=64 * MB, backend_penalty=penalty,
        replication=ReplicationConfig(factor=replication)))
    client, sim = cluster.clients[0], cluster.sim
    cluster.backend.default_value_length = value_length
    client.config = dataclasses.replace(
        client.config, api_overhead=api_overhead, engine_cpu=engine_cpu,
        nonblocking_allowed=True, request_timeout=healthy_timeout,
        max_retries=retries, retry_backoff=backoff, failure_threshold=0)
    cluster.preload([(HOT, value_length)] + [(k, value_length) for k in KEYS])
    gap = iter(gaps)
    mark = 0  # len(sent) when the current call was made

    def check_request_sent(t0):
        """The first message sent after ``t0`` is the call's request:
        the engine sends it once the API overhead and its CPU are
        spent, through an idle NIC."""
        nic, msg = next((nic, msg) for nic, msg in sent[mark:])
        assert msg.wire_at == ((t0 + api_overhead) + engine_cpu) + (
            nic._cpu_send + nic._serialize(msg.nbytes))

    def call(name, fn):
        """Make one call at a fresh instant: ``(t0, result, return instant)``."""
        nonlocal mark
        yield sim.timeout(next(gap))
        note(f"{name} at t0={sim.now!r}")
        mark, t0 = len(sent), sim.now
        result = yield from fn()
        check_request_sent(t0)
        return t0, result, sim.now

    def check_waited_in_turn(t0, reqs):
        """mget and flush_all: one overhead for the batch, then each
        request waited in turn from where the one before it completed.
        Returns where the last wait ends."""
        t_api = start = t0 + api_overhead
        for r in reqs:
            assert r.t_api_return == t_api
            blocked = 0.0 + (t_api - t0)
            if r.t_complete > start:
                blocked += r.t_complete - start
                start = r.t_complete
            assert r.blocked_time == blocked
        return start

    def healthy():
        for name, fn in ISSUED.items():
            t0, req, t_ret = yield from call(name, lambda: fn(client, value_length))
            t_api = t0 + api_overhead
            assert req.t_api_return == t_api
            waits = [t_api, t_ret]
            if req.req_id in copies and name not in BUFFER_SAFE:
                # A sync write: the response, then the copies' acks.
                waits.insert(1, next(t for t, rid in answered
                                     if rid == req.req_id))
            assert req.blocked_time == _waited(t0, *waits)
            if name in BUFFER_SAFE:
                yield from client.wait(req)
        # A miss: the backend fetch, then the repopulating set, which
        # is a blocking call of its own.
        t0, req, t_ret = yield from call("get-miss", lambda: client.get(ABSENT))
        t_api = t0 + api_overhead
        t_resp = next(t for t, rid in answered if rid == req.req_id)
        t_fetched = t_resp + penalty
        client_nic = sent[mark][0]
        fill = next(msg for nic, msg in sent[mark + 1:] if nic is client_nic)
        assert fill.wire_at == ((t_fetched + api_overhead) + engine_cpu) + (
            fill.src._cpu_send + fill.src._serialize(fill.nbytes))
        assert req.blocked_time == (((0.0 + (t_api - t0)) + (t_resp - t_api))
                                    + (t_fetched - t_resp)) + (t_ret - t_fetched)
        # The hand-rolled ones: mget, stats, flush_all.
        t0, reqs, _ = yield from call("mget", lambda: client.mget(KEYS))
        check_waited_in_turn(t0, reqs)
        client.total_blocked = 0.0
        t0, _, t_ret = yield from call("stats", lambda: client.stats(0))
        assert client.total_blocked == 0.0 + (t_ret - t0)
        t0, reqs, t_ret = yield from call("flush_all", client.flush_all)
        assert check_waited_in_turn(t0, reqs) == t_ret
        # Every write copy is issued where its parent's overhead ends.
        assert bool(copies) == (replication > 1)
        for parent, subs in copies.values():
            assert {sub.t_issue for sub in subs} == {parent.t_api_return}

    def silent():
        client.config = dataclasses.replace(client.config,
                                            request_timeout=timeout)
        cluster.servers[0].crash()
        for name, fn in ISSUED.items():
            del timeouts[:]
            t0, req, t_ret = yield from call(name, lambda: fn(client, value_length))
            t_api = t0 + api_overhead
            if name in BUFFER_SAFE:
                assert req.blocked_time == _waited(t0, t_api, t_ret)
                if profile.early_ack and name == "bset":
                    assert t_ret == t_api + timeout  # no BufferAck comes
                yield from client.wait(req)
                ends = _down_at(t_ret, timeout, retries, backoff)
            else:
                ends = _down_at(t_api, timeout, retries, backoff)
                # Every bounded wait in turn, then a get's backend read.
                assert req.blocked_time == _waited(t0, t_api, *ends, t_ret)
            assert (timeouts, downs[req.req_id]) == (ends[::2], ends[-1])
        del timeouts[:]
        t0, reqs, _ = yield from call("mget", lambda: client.mget(KEYS))
        start, want = t0 + api_overhead, []
        for r in reqs:
            ends = _down_at(start, timeout, retries, backoff)
            want += ends[::2]
            assert downs[r.req_id] == ends[-1]
            start = ends[-1] + penalty  # the fallback backend read
        assert timeouts == want
        for name, fn in (("stats", lambda: client.stats(0)),
                         ("flush_all", client.flush_all)):
            del timeouts[:]
            t0, _, t_ret = yield from call(name, fn)
            # One bounded wait, no retry.
            assert timeouts == [t_ret] == [(t0 + api_overhead) + timeout]

    with mock.patch.object(NIC, "transmit", spy_transmit), \
            mock.patch.object(MemcachedClient, "_note_timeout", spy_timeout), \
            mock.patch.object(MemcachedClient, "_fail_server_down", spy_fail), \
            mock.patch.object(MemcachedClient, "_on_response", spy_response), \
            mock.patch.object(MemcachedClient, "_fan_out", spy_fan_out):
        sim.run(until=sim.spawn(healthy()))
        if replication == 1:
            sim.run(until=sim.spawn(silent()))


@settings(max_examples=30, deadline=None)
@given(profile=st.sampled_from([profiles.RDMA_MEM, profiles.H_RDMA_OPT_NONB_I,
                                profiles.IPOIB_MEM]),
       api_overhead=cost_or_zero, engine_cpu=cost_or_zero,
       value_length=st.integers(1, 64 * KB), credits=st.integers(1, 2),
       bursts=st.lists(st.lists(st.tuples(st.sampled_from(["iget", "iset"]),
                                          st.one_of(st.just(0.0), ps)),
                                min_size=1, max_size=8),
                       min_size=2, max_size=2),
       client_nodes=st.sampled_from([1, 2]))
def test_window_bursts_are_the_engine_and_nic_recursions(
        profile, api_overhead, engine_cpu, value_length, credits, bursts,
        client_nodes):
    sent = []
    transmit = NIC.transmit

    def spy_transmit(nic, *args, **kwargs):
        msg = transmit(nic, *args, **kwargs)
        sent.append((nic, msg))
        return msg

    cluster = build_cluster(profile, spec=ClusterSpec(
        topology=TopologyConfig(initial_servers=2), num_clients=2,
        client_nodes=client_nodes, server_mem=32 * MB, recv_credits=credits))
    sim = cluster.sim
    cluster.preload([(k, value_length) for k in [HOT] + KEYS])
    issued = {}
    for client in cluster.clients:
        client.config = dataclasses.replace(
            client.config, api_overhead=api_overhead, engine_cpu=engine_cpu,
            nonblocking_allowed=True)
        issued[client] = {}

    def burst(client, ops):
        reqs = []
        for i, (op, gap) in enumerate(ops):
            if gap:
                yield sim.timeout(gap)
            if op == "iget":
                req = yield from client.iget(KEYS[i % len(KEYS)])
            else:
                req = yield from client.iset(b"w%d" % i, value_length)
            reqs.append(req)
        reqs += yield from client.mget(KEYS)
        yield from client.wait_all(reqs)
        issued[client] = {r.req_id: r for r in reqs}

    with mock.patch.object(NIC, "transmit", spy_transmit):
        sim.run(until=sim.all_of([
            sim.spawn(burst(client, ops))
            for client, ops in zip(cluster.clients, bursts)]))

    # Whose engine sent each message: the server endpoint it goes to.
    owner = {conn.endpoint.peer: client for client in cluster.clients
             for conn in client._conns}
    for client in cluster.clients:
        free = 0.0
        for nic, msg in sent:
            if owner.get(msg.to) is not client:
                continue
            body = msg.payload
            if isinstance(body, ValueArrival):
                # Sent where its credit was granted: the engine is free.
                assert msg.at >= free
                free = msg.at
                continue
            req_id = (body.entries[0][0] if isinstance(body, MultiGetRequest)
                      else body.req_id)
            ready = issued[client][req_id].t_api_return
            free = max(ready, free) + engine_cpu
            assert msg.at == free
    client_nics = {conn.endpoint.nic for client in cluster.clients
                   for conn in client._conns}
    assert len(client_nics) == client_nodes
    for nic in client_nics:
        busy = 0.0
        # In time order; a stable sort keeps the hand-over order of sends
        # at one instant.
        for msg in sorted((m for n, m in sent if n is nic),
                          key=lambda m: m.at):
            busy = max(msg.at, busy) + (nic._cpu_send
                                        + nic._serialize(msg.nbytes))
            assert msg.wire_at == busy


@settings(max_examples=30, deadline=None)
@given(profile=st.sampled_from([profiles.RDMA_MEM, profiles.H_RDMA_OPT_NONB_I,
                                profiles.IPOIB_MEM]),
       api_overhead=cost_or_zero, engine_cpu=cost_or_zero,
       value_length=st.integers(1, 64 * KB), hlc=st.booleans(),
       steps=st.lists(st.tuples(st.sampled_from(["iget", "iset", "get", "set",
                                                 "wait", "wait_any", "test"]),
                                st.one_of(st.just(0.0), ps)),
                      min_size=1, max_size=16))
def test_nonblocking_calls_are_the_sleep_per_call_schedule(
        profile, api_overhead, engine_cpu, value_length, hlc, steps):
    sent = []
    transmit = NIC.transmit

    def spy_transmit(nic, *args, **kwargs):
        msg = transmit(nic, *args, **kwargs)
        sent.append((nic, msg))
        return msg

    cluster = build_cluster(profile, spec=ClusterSpec(
        server_mem=32 * MB, recv_credits=64,
        replication=ReplicationConfig(hlc=hlc)))
    client, sim = cluster.clients[0], cluster.sim
    client.config = dataclasses.replace(
        client.config, api_overhead=api_overhead, engine_cpu=engine_cpu,
        nonblocking_allowed=True)
    cluster.preload([(HOT, value_length)] + [(k, value_length) for k in KEYS])
    calls = []  # every request, in call order
    blocked = {}  # req_id -> the schedule's blocked time
    clock = 0.0  # the sleeping caller's instant

    def issue(name, i):
        nonlocal clock
        c = clock
        if name == "iget":
            req = yield from client.iget(KEYS[i % len(KEYS)])
        elif name == "iset":
            req = yield from client.iset(b"w%d" % i, value_length)
        elif name == "get":
            req = yield from client.get(HOT)
        else:
            req = yield from client.set(b"b%d" % i, value_length)
        note(f"{name} req {req.req_id} at c={c!r}")
        assert req.t_issue == c
        calls.append(req)
        t_api = c + api_overhead
        blocked[req.req_id] = 0.0 + (t_api - c)
        clock = t_api
        if name in ("get", "set"):  # waits from t_api to its completion
            blocked[req.req_id] += req.t_complete - t_api
            clock = req.t_complete
        return req

    def waited(req):
        """A wait at ``clock`` on ``req``, which has returned."""
        nonlocal clock
        if req.t_complete > clock:
            blocked[req.req_id] += req.t_complete - clock
            clock = req.t_complete

    def app():
        nonlocal clock
        pending = []
        for i, (name, gap) in enumerate(steps):
            if gap:
                yield Timeout.at(sim, client.now + gap)
                clock += gap
            if name in ("iget", "iset", "get", "set"):
                req = yield from issue(name, i)
                if name in ("iget", "iset"):
                    pending.append(req)
            elif not pending:
                continue
            elif name == "wait":
                req = pending.pop(0)
                yield from client.wait(req)
                waited(req)
            elif name == "wait_any":
                done_req, rest = yield from client.wait_any(pending)
                ready = [r for r in pending
                         if r.done and r.t_complete <= clock]
                if not ready:  # blocked to the first completion
                    clock = min(r.t_complete for r in pending if r.done)
                    ready = [r for r in pending
                             if r.done and r.t_complete <= clock]
                assert done_req is ready[0]
                pending = list(rest)
            elif client.test(pending[0]):
                # A poll can only see a completion by the caller's instant.
                assert pending[0].t_complete <= clock
            assert client.now == clock
        while pending:
            req = pending.pop(0)
            yield from client.wait(req)
            waited(req)

    with mock.patch.object(NIC, "transmit", spy_transmit):
        sim.run(until=sim.spawn(app()))

    for req in calls:
        assert req.blocked_time == blocked[req.req_id], req.req_id
        if hlc and req.op == "set":
            assert req.hlc[0] == req.t_issue
    if not calls:
        return
    # The engine sends each job once its call's overhead is spent and
    # the job before it is sent, and the NIC sends in time order.
    at, free = {}, 0.0
    for req in calls:
        free = at[req.req_id] = max(req.t_issue + api_overhead,
                                    free) + engine_cpu
    nic = client._conns[0].endpoint.nic
    ours = [m for n, m in sent if n is nic]
    first, busy = {}, 0.0
    for msg in sorted(ours, key=lambda m: at[m.payload.req_id]):
        busy = max(at[msg.payload.req_id], busy) + (
            nic._cpu_send + nic._serialize(msg.nbytes))
        first.setdefault(msg.payload.req_id, busy)
    for req in calls:
        assert first[req.req_id] == min(
            m.wire_at for m in ours
            if m.payload.req_id == req.req_id), req.req_id

"""A connection is a receiver on each endpoint, not a relay process.

``MemcachedServer.attach`` and the client's one-sided connections
install a callable the endpoint hands each message to at the instant of
arrival. These cases pin that the fault paths behave as they did when a
pump process sat there: a message for a dead or unreachable server is
dropped and counted (a SET value, a polled write, where it lands),
``crash()`` tears the worker pool down although the
parked workers now run *inside* it, and a connection added to a running
cluster is served without anything being spawned for it. An endpoint
that has a receiver never allocates the inbox it would not read.
"""

import pytest

from repro.core.cluster import ClusterSpec, ReplicationConfig, build_cluster
from repro.core.profiles import H_RDMA_OPT_NONB_I, IPOIB_MEM, RDMA_MEM
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig
from repro.server.protocol import HIT, STORED, Request, ValueArrival
from repro.server.server import ServerCosts
from repro.units import KB, MB, US
from repro.workloads.generator import WorkloadSpec


def make_cluster(profile=RDMA_MEM, servers=1):
    return build_cluster(profile, spec=ClusterSpec(
        topology=TopologyConfig(initial_servers=servers), num_clients=1,
        server_mem=16 * MB, ssd_limit=64 * MB, observe=True,
        replication=ReplicationConfig(factor=1, router="ketama")))


def dropped(cluster):
    return int(sum(c.value for c in cluster.obs.registry.counters(
        lambda m: m.name == "server_rx_dropped")))


def _spy_values(client):
    """The landing instant of each SET value ``client`` writes to its
    servers, noted as the polled write is handed to the server."""
    landed = []
    for conn in client._conns:
        peer = conn.endpoint.peer

        def spy(msg, poll=peer.poller):
            landed.append(msg.delivered_at)
            poll(msg)

        peer.poller = spy
    return landed


@pytest.mark.parametrize("profile", [RDMA_MEM, IPOIB_MEM],
                         ids=["rdma", "ipoib"])
@pytest.mark.parametrize("fault", ["crash", "partition"])
def test_frame_for_a_down_server_is_dropped_and_counted(
        profile, fault):
    cluster = make_cluster(profile)
    sim, server = cluster.sim, cluster.servers[0]
    ep = cluster.clients[0]._conns[0].endpoint
    getattr(server, fault)()
    for req_id in (1, 2, 3):
        header = Request(req_id=req_id, op="get", key=b"k")
        ep.send(header, header.header_bytes)
    sim.run()
    # Each message vanished at the receiver: counted, never queued, no CPU
    # charged, nothing sent back.
    assert dropped(cluster) == 3
    assert server.queue_depth() == 0
    assert server.stats.busy_time == 0.0 and server.stats.gets == 0
    # Nothing came back, so nothing made the client endpoint allocate
    # an inbox either.
    assert ep._inbox is None


@pytest.mark.parametrize("fault", ["crash", "partition"])
def test_a_value_written_to_a_down_server_is_dropped_and_counted(fault):
    """A SET value is a polled write, handed to the server's poller as
    it is sent: one that lands while the server is still dead or
    unreachable is dropped there, counted as a message would be, and
    leaves no rendezvous behind."""
    cluster = make_cluster(RDMA_MEM)
    sim, server = cluster.sim, cluster.servers[0]
    ep = cluster.clients[0]._conns[0].endpoint
    getattr(server, fault)()
    for req_id in (1, 2):
        ep.write_polled(ValueArrival(req_id=req_id, nbytes=4 * KB), 4 * KB)
    sim.run()
    assert dropped(cluster) == 2
    assert server._value_events == {}
    assert server.stats.busy_time == 0.0 and server.stats.sets == 0


@pytest.mark.parametrize("fault,recover", [("crash", "restart"),
                                           ("partition", "heal")])
def test_a_value_written_to_a_down_server_that_is_up_where_it_lands_is_stored(
        fault, recover):
    """Whether a value written to a down server is lost is decided where
    it lands, as a message's fate is: a SET sent while the server is down,
    whose header and value both land after it is back, completes."""
    cluster = make_cluster(RDMA_MEM)
    sim, server, client = cluster.sim, cluster.servers[0], cluster.clients[0]
    landed = _spy_values(client)
    done = []

    def app():
        done.append((yield from client.set(b"k", 4 * KB)).status)

    def faults():
        getattr(server, fault)()
        yield sim.timeout(1.5 * US)  # the value is sent, nothing landed
        assert len(landed) == 1 and landed[0] > sim.now
        getattr(server, recover)()

    sim.spawn(faults())
    sim.spawn(app())
    sim.run(until=5e-3)
    assert done == [STORED] and server.stats.sets == 1
    assert dropped(cluster) == 0
    assert server._busy_workers == 0 and server._value_events == {}


def _spy_handovers_and_headers(cluster):
    """The instants each SET value is handed to the server and each
    request message is delivered to it."""
    sim, client = cluster.sim, cluster.clients[0]
    peer = client._conns[0].endpoint.peer
    handed, headers = [], []
    poll, receive = peer.poller, peer.receiver

    def spy_poll(msg):
        handed.append(sim.now)
        poll(msg)

    def spy_receive(msg):
        headers.append(sim.now)
        receive(msg)

    peer.poller, peer.receiver = spy_poll, spy_receive
    return handed, headers


@pytest.mark.parametrize("request_timeout", [None, 1e-3],
                         ids=["no-timeout", "retried"])
@pytest.mark.parametrize("fault,recover", [("crash", "restart"),
                                           ("partition", "heal")])
def test_a_value_handed_over_before_a_fault_abandons_its_set(
        fault, recover, request_timeout):
    """A fault and its recovery that both fall between an RDMA SET
    value's handover and its header's landing lose the value: the
    header's worker, served after the recovery, takes the value's
    dropped marker and abandons the SET instead of parking on a
    rendezvous nobody fills. With ``request_timeout`` the SET completes
    through its retry, and no worker or rendezvous is left either."""
    cluster = build_cluster(RDMA_MEM, spec=ClusterSpec(
        server_mem=16 * MB, request_timeout=request_timeout))
    sim, server, client = cluster.sim, cluster.servers[0], cluster.clients[0]
    handed, headers = _spy_handovers_and_headers(cluster)
    done = []

    def app():
        done.append((yield from client.set(b"k", 4 * KB)).status)

    def faults():
        yield sim.timeout(1.4 * US)
        assert len(handed) == 1 and headers == []
        getattr(server, fault)()
        yield sim.timeout(0.5 * US)
        getattr(server, recover)()
        assert headers == []  # the header lands after the recovery

    sim.spawn(app())
    sim.spawn(faults())
    sim.run(until=10e-3)
    assert headers and headers[0] > 1.9 * US
    assert server._busy_workers == 0 and server._value_events == {}
    if request_timeout is None:
        assert done == [] and server.stats.sets == 0
    else:
        assert done == [STORED] and server.stats.sets == 1
        assert len(handed) == len(headers) == 2


@pytest.mark.parametrize("fault,recover", [("crash", "restart"),
                                           ("partition", "heal")])
def test_a_header_dropped_while_down_takes_its_values_marker(fault, recover):
    """A handed-over value's dropped marker goes with its header, when
    the header lands on the down server and is dropped there."""
    cluster = make_cluster(RDMA_MEM)
    sim, server, client = cluster.sim, cluster.servers[0], cluster.clients[0]
    handed, headers = _spy_handovers_and_headers(cluster)

    def app():
        yield from client.set(b"k", 4 * KB)

    def faults():
        yield sim.timeout(1.4 * US)
        assert len(handed) == 1 and headers == []
        getattr(server, fault)()
        assert len(server._value_events) == 1  # the marker
        yield sim.timeout(10 * US)
        assert len(headers) == 1  # dropped, and its marker with it
        assert server._value_events == {}
        getattr(server, recover)()

    sim.spawn(app())
    sim.spawn(faults())
    sim.run(until=5e-3)
    assert dropped(cluster) == 1
    assert server._busy_workers == 0 and server._value_events == {}
    assert server.stats.sets == 0


@pytest.mark.parametrize("request_timeout", [None, 1e-3],
                         ids=["no-timeout", "retried"])
@pytest.mark.parametrize("get_priority", [False, True],
                         ids=["fifo", "get-priority"])
def test_a_crash_drops_a_queued_headers_handed_over_value(get_priority,
                                                          request_timeout):
    """One worker, busy on a 256 KiB SET; a second SET's header waits in
    the queue behind it, its value already handed over. The crash drops
    the queued header, and its value's rendezvous with it: no dropped
    marker is left for a header that never comes. With
    ``request_timeout`` both SETs complete through their retries on the
    restarted server, the second one's value landing on a fresh
    rendezvous under the same req_id."""
    cluster = build_cluster(RDMA_MEM, spec=ClusterSpec(
        num_clients=2, server_mem=16 * MB, worker_threads=1,
        get_priority=get_priority, request_timeout=request_timeout))
    sim, server = cluster.sim, cluster.servers[0]
    done = []

    def app(client, key, value_length, delay):
        yield sim.timeout(delay)
        done.append((key, (yield from client.set(key, value_length)).status))

    def faults():
        yield sim.timeout(10 * US)
        assert server._busy_workers == 1 and server.queue_depth() == 1
        (rendezvous,) = server._value_events.values()
        assert rendezvous.processed  # the queued SET's value is there
        server.crash()
        assert server._value_events == {}
        yield sim.timeout(1 * US)
        server.restart()

    sim.spawn(app(cluster.clients[0], b"a", 256 * KB, 0.0))
    sim.spawn(app(cluster.clients[1], b"b", 4 * KB, 0.5 * US))
    sim.spawn(faults())
    sim.run(until=10e-3)
    assert server._busy_workers == 0 and server._value_events == {}
    if request_timeout is None:
        assert done == [] and server.stats.sets == 0
    else:
        assert done == [(b"a", STORED), (b"b", STORED)]
        assert server.stats.sets == 2


def test_a_value_landing_on_a_dropped_marker_gets_a_fresh_rendezvous():
    """A value whose key holds a purge's dropped marker is a later copy
    (a retry reuses the req_id): it is stored on a fresh rendezvous, not
    handed to the already-processed marker."""
    cluster = make_cluster(RDMA_MEM)
    sim, server = cluster.sim, cluster.servers[0]
    ep = cluster.clients[0]._conns[0].endpoint
    key = (id(ep.peer), 7)
    server._value_events[key] = server._dropped_value
    arrival = ValueArrival(req_id=7, nbytes=4 * KB)
    ep.write_polled(arrival, 4 * KB)
    sim.run()
    rendezvous = server._value_events[key]
    assert rendezvous is not server._dropped_value
    assert rendezvous.processed and rendezvous.value is arrival


def test_endpoints_with_a_receiver_never_allocate_an_inbox():
    cfg = RunConfig(profile=RDMA_MEM,
                    workload=WorkloadSpec(num_ops=60, num_keys=200,
                                          value_length=1 * KB,
                                          read_fraction=0.7),
                    cluster=ClusterSpec(
                        topology=TopologyConfig(initial_servers=4),
                        num_clients=8, server_mem=16 * MB))
    cluster = cfg.build()
    result = cfg.run(cluster=cluster)
    assert result.ops == 8 * 60
    clients = [conn.endpoint for c in cluster.clients for conn in c._conns]
    endpoints = clients + [ep.peer for ep in clients]
    assert len(endpoints) == 2 * 4 * 8
    assert all(ep.receiver is not None for ep in endpoints)
    assert [ep for ep in endpoints if ep._inbox is not None] == []
    # recv() is what allocates one, for a consumer that loops on it.
    ep = endpoints[0]
    ep.recv()
    assert ep._inbox is not None


def test_crash_tears_the_worker_pool_down_inside_the_call(spawned):
    cluster = make_cluster()
    sim, server, client = cluster.sim, cluster.servers[0], cluster.clients[0]
    sim.run()  # every worker parked on the empty queue
    workers = [p for p in spawned if "-worker" in p.name]
    assert len(workers) == server.config.worker_threads
    assert all(p.is_alive for p in workers)
    before = sim.events_processed
    server.crash()
    # The poison pills resumed the parked workers inside crash(): the
    # pool is gone when it returns, no pill is left for a later pool and
    # the loop has nothing to do.
    assert not any(p.is_alive for p in workers)
    assert server.queue_depth() == 0
    sim.run()
    assert sim.events_processed == before
    # A restarted server serves again with a fresh pool.
    server.restart()
    out = []

    def app():
        out.append((yield from client.set(b"k", 1 * KB)).status)
        out.append((yield from client.get(b"k")).status)

    sim.run(until=sim.spawn(app()))
    assert out == [STORED, HIT]
    fresh = [p for p in spawned if "-worker" in p.name and p.is_alive]
    assert len(fresh) == server.config.worker_threads
    assert not set(fresh) & set(workers)


def test_connection_added_mid_run_gets_its_receiver_without_a_spawn(spawned):
    cluster = make_cluster(H_RDMA_OPT_NONB_I, servers=2)
    sim, client = cluster.sim, cluster.clients[0]
    keys = [b"key:%03d" % i for i in range(40)]
    cluster.preload([(k, 512) for k in keys])

    def read_all(out):
        for k in keys:
            out.append((yield from client.get(k)).status)

    sim.run(until=sim.spawn(read_all([])))  # the client is up and running
    known = len(spawned)
    cluster.admin.add_server()
    # Wiring the new connection installed a receiver on each endpoint;
    # the processes created are the new server's workers and the
    # migration, none of them for the connection.
    conn = client._conns[2]
    assert conn.endpoint.receiver is not None
    assert conn.endpoint.peer.receiver is not None
    names = [p.name for p in spawned[known:]]
    assert names and not [n for n in names if "rx" in n or "pump" in n]
    sim.run(until=sim.timeout(2000 * US))
    assert cluster.migration is None and cluster.view_epoch == 1
    # The new server owns keys now and answers over that connection.
    out = []
    sim.run(until=sim.spawn(read_all(out)))
    assert out == [HIT] * len(keys)
    assert cluster.servers[2].stats.gets > 0
    assert not [p.name for p in spawned if "rx" in p.name or "pump" in p.name]


@pytest.mark.parametrize("restart", [False, True], ids=["down", "restarted"])
@pytest.mark.parametrize("value_length,lands",
                         [(1 * KB, "before"), (256 * KB, "after")],
                         ids=["value-landed", "value-in-flight"])
def test_a_crash_mid_parse_abandons_the_rdma_set(value_length, lands,
                                                 restart):
    """A crash after an RDMA SET's header was picked up and before its
    parse ends abandons the SET, whether its value had landed by then
    or was still on the wire (and so lost): the worker comes free,
    and no rendezvous outlives the crash — also across a restart."""
    cluster = build_cluster(RDMA_MEM, spec=ClusterSpec(
        server_mem=16 * MB, costs=ServerCosts(parse=100 * US)))
    sim, server, client = cluster.sim, cluster.servers[0], cluster.clients[0]
    landed = _spy_values(client)

    def app():
        yield from client.set(b"k", value_length)

    def faults():
        yield sim.timeout(20 * US)  # the header is in, its parse is not
        assert server._busy_workers == 1
        # The value was handed over as it was sent; ``lands`` says
        # whether it has landed by now.
        assert len(landed) == 1
        assert (landed[0] <= sim.now) == (lands == "before")
        server.crash()
        if restart:
            yield sim.timeout(1e-3)
            server.restart()

    sim.spawn(app())
    sim.spawn(faults())
    sim.run(until=5e-3)
    assert server._busy_workers == 0
    assert server._value_events == {}
    assert server.stats.sets == 0


@pytest.mark.parametrize("restart", [False, True], ids=["down", "restarted"])
@pytest.mark.parametrize("profile", [RDMA_MEM, H_RDMA_OPT_NONB_I],
                         ids=["default", "early-ack"])
def test_a_crash_while_the_value_is_in_flight_abandons_the_rdma_set(
        profile, restart):
    """A crash after an RDMA SET's value was handed to the server and
    its header parsed, but before the value lands, loses the value: the
    worker, which knows where it lands, wakes there to an abandoned SET.
    No BufferAck and no response is sent, the worker comes free, and no
    rendezvous is left — also across a restart before the landing."""
    cluster = build_cluster(profile, spec=ClusterSpec(server_mem=16 * MB))
    sim, server, client = cluster.sim, cluster.servers[0], cluster.clients[0]
    landed = _spy_values(client)
    parsed, sent = [], []
    srv_ep = client._conns[0].endpoint.peer
    receive, send, write_polled = (srv_ep.receiver, srv_ep.send,
                                   srv_ep.write_polled)

    def spy_receive(msg):
        costs = server.config.costs
        parsed.append((sim.now + msg.recv_cpu) + costs.parse)
        receive(msg)

    def spy_send(payload, *args, **kwargs):
        sent.append(payload)
        return send(payload, *args, **kwargs)

    def spy_write_polled(payload, nbytes):
        sent.append(payload)
        return write_polled(payload, nbytes)

    srv_ep.receiver, srv_ep.send = spy_receive, spy_send
    srv_ep.write_polled = spy_write_polled

    def app():
        yield from client.set(b"k", 512 * KB)

    def faults():
        yield sim.timeout(20 * US)
        assert server._busy_workers == 1
        assert parsed[0] < sim.now < landed[0]
        server.crash()
        if restart:
            yield sim.timeout((landed[0] - sim.now) / 2)
            server.restart()

    sim.spawn(app())
    sim.spawn(faults())
    sim.run(until=5e-3)
    assert sim.now > landed[0]
    assert sent == []
    assert server._busy_workers == 0
    assert server._value_events == {}
    assert server.stats.sets == 0

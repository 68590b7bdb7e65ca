"""Tests for the batched multi-get (memcached_mget)."""

from unittest import mock

import pytest

from repro import build_cluster, profiles
from repro.core.topology import TopologyConfig
from repro.net.params import FDR_IPOIB
from repro.server.protocol import HIT, MISS
from repro.units import KB, MB


def small_cluster(profile=profiles.H_RDMA_OPT_NONB_I, **kw):
    kw.setdefault("server_mem", 32 * MB)
    kw.setdefault("ssd_limit", 64 * MB)
    return build_cluster(profile, **kw)


def run_app(cluster, gen_fn):
    sim = cluster.sim
    return sim.run(until=sim.spawn(gen_fn(sim)))


def test_mget_returns_in_input_order():
    cluster = small_cluster()
    client = cluster.clients[0]

    def app(sim):
        for i in range(8):
            yield from client.set(f"k{i}".encode(), 4 * KB)
        reqs = yield from client.mget([f"k{i}".encode() for i in range(8)])
        assert [r.key for r in reqs] == [f"k{i}".encode() for i in range(8)]
        assert all(r.status == HIT for r in reqs)
        assert all(r.value_length == 4 * KB for r in reqs)

    run_app(cluster, app)


def test_mget_mixes_hits_and_misses():
    cluster = small_cluster(profiles.RDMA_MEM)
    cluster.backend.default_value_length = 0  # no repopulation value
    client = cluster.clients[0]

    def app(sim):
        yield from client.set(b"present", 1 * KB)
        reqs = yield from client.mget([b"present", b"absent"])
        assert reqs[0].status == HIT
        assert reqs[1].status == MISS

    run_app(cluster, app)


def test_mget_miss_pays_backend_penalty():
    from repro.units import MS

    cluster = small_cluster(profiles.RDMA_MEM)
    cluster.backend.default_value_length = 1 * KB
    client = cluster.clients[0]

    def app(sim):
        reqs = yield from client.mget([b"absent"])
        assert reqs[0].miss_penalty == pytest.approx(2 * MS)
        again = yield from client.get(b"absent")
        assert again.status == HIT  # repopulated

    run_app(cluster, app)


def test_mget_spans_servers():
    cluster = small_cluster(topology=TopologyConfig(initial_servers=4))
    client = cluster.clients[0]

    def app(sim):
        keys = [f"key{i}".encode() for i in range(32)]
        for k in keys:
            yield from client.set(k, 2 * KB)
        reqs = yield from client.mget(keys)
        assert all(r.status == HIT for r in reqs)
        assert len({r.server_index for r in reqs}) == 4

    run_app(cluster, app)


def test_mget_faster_than_sequential_gets():
    def run(batched):
        cluster = small_cluster(profiles.H_RDMA_OPT_BLOCK)
        client = cluster.clients[0]
        sim = cluster.sim
        keys = [f"k{i}".encode() for i in range(32)]

        def app(sim):
            for k in keys:
                yield from client.set(k, 8 * KB)
            t0 = sim.now
            if batched:
                yield from client.mget(keys)
            else:
                for k in keys:
                    yield from client.get(k)
            return sim.now - t0

        return sim.run(until=sim.spawn(app(sim)))

    assert run(batched=True) < run(batched=False)


def test_mget_works_on_ipoib():
    cluster = small_cluster(profiles.IPOIB_MEM)
    client = cluster.clients[0]

    def app(sim):
        yield from client.set(b"a", 1 * KB)
        reqs = yield from client.mget([b"a"])
        assert reqs[0].status == HIT

    run_app(cluster, app)


def test_mget_records_ops_once():
    cluster = small_cluster()
    client = cluster.clients[0]

    def app(sim):
        yield from client.set(b"x", 1 * KB)
        yield from client.mget([b"x"])

    run_app(cluster, app)
    assert [r.api for r in client.records] == ["set", "mget"]


def test_ipoib_mget_responses_keep_send_order_across_a_link_restore():
    """A stream socket never reorders. The server's link is degraded
    50x and restored while it is sending one mget batch's responses:
    those sent before the restore take 50x the latency, those sent
    after it arrive first. The client still takes them in send order,
    each one socket receive after the one before it."""
    from repro.faults import LINK_DEGRADE, FaultEvent, FaultPlan
    from repro.net.ipoib import IPoIBEndpoint
    from repro.server.protocol import Response

    keys = [b"k%d" % i for i in range(12)]
    sent = []
    send = IPoIBEndpoint.send

    def spy(endpoint, payload, nbytes, one_sided=False):
        msg = send(endpoint, payload, nbytes, one_sided)
        if isinstance(payload, Response):
            sent.append((endpoint.sim.now, msg))
        return msg

    def run(restore):
        sent.clear()
        cluster = small_cluster(profiles.IPOIB_MEM)
        cluster.servers[0].preload((key, 4 * KB) for key in keys)
        if restore is not None:
            FaultPlan([FaultEvent(kind=LINK_DEGRADE, server=0, at=0.0,
                                  duration=restore, factor=50.0)]
                      ).inject(cluster)

        def app(sim):
            return (yield from cluster.clients[0].mget(keys))

        with mock.patch.object(IPoIBEndpoint, "send", spy):
            return run_app(cluster, app), list(sent)

    # The server sends its responses at the same instants either way
    # (the request travels on the client's link): restore mid-batch.
    _, healthy = run(None)
    restore = (healthy[5][0] + healthy[6][0]) / 2
    reqs, degraded = run(restore)
    delivered = [msg.delivered_at for _, msg in degraded]
    assert min(delivered[6:]) < max(delivered[:6])  # arrival order differs
    cpu_recv = FDR_IPOIB.cpu_recv
    taken, previous = [], 0.0
    for _, msg in degraded:
        previous = max(msg.delivered_at, previous) + cpu_recv
        taken.append(previous)
    assert [r.t_complete for r in reqs] == taken  # send order
    assert all(r.status == HIT for r in reqs)

"""Tests for the server runtime: workers, credits, early acks, stats."""

from repro.net.fabric import Fabric
from repro.net.transport import connect_rdma
from repro.server.protocol import (
    HIT,
    MISS,
    STORED,
    GetRequest,
    SetRequest,
    ValueArrival,
)
from repro.server.server import MemcachedServer, ServerConfig
from repro.sim import Simulator
from repro.storage.params import SATA_SSD
from repro.units import KB, MB, US


def make_rig(config=None):
    sim = Simulator()
    fabric = Fabric(sim)
    server = MemcachedServer(sim, config or ServerConfig(mem_limit=16 * MB))
    cli_ep, srv_ep = connect_rdma(sim, fabric.node("c"), fabric.node("s"))
    server.attach(srv_ep)
    server.start()
    return sim, server, cli_ep


def raw_set(sim, server, ep, req_id, key, nbytes):
    """Drive the wire protocol by hand (no client library)."""
    from repro.server.protocol import BufferAck

    header = SetRequest(req_id=req_id, op="set", key=key,
                        value_length=nbytes, inline_value=False)
    ep.send(header, header.header_bytes)
    credit = server.credits.request()
    yield credit
    ep.send(ValueArrival(req_id=req_id, nbytes=nbytes, credit=credit),
            nbytes, one_sided=True)
    while True:
        d = yield ep.recv()
        if not isinstance(d.payload, BufferAck):
            return d.payload


def raw_get(sim, ep, req_id, key):
    header = GetRequest(req_id=req_id, op="get", key=key)
    ep.send(header, header.header_bytes)
    d = yield ep.recv()
    return d.payload


def test_set_then_get_roundtrip():
    sim, server, ep = make_rig()
    out = {}

    def app(sim):
        out["set"] = yield from raw_set(sim, server, ep, 1, b"k", 4 * KB)
        out["get"] = yield from raw_get(sim, ep, 2, b"k")

    sim.run(until=sim.spawn(app(sim)))
    assert out["set"].status == STORED
    assert out["get"].status == HIT
    assert out["get"].value_length == 4 * KB
    assert server.stats.sets == 1 and server.stats.get_hits == 1


def test_get_missing_key_misses():
    sim, server, ep = make_rig()
    out = {}

    def app(sim):
        out["r"] = yield from raw_get(sim, ep, 1, b"absent")

    sim.run(until=sim.spawn(app(sim)))
    assert out["r"].status == MISS
    assert server.stats.get_misses == 1


def test_response_carries_stage_timings():
    sim, server, ep = make_rig()
    out = {}

    def app(sim):
        out["set"] = yield from raw_set(sim, server, ep, 1, b"k", 32 * KB)
        out["get"] = yield from raw_get(sim, ep, 2, b"k")

    sim.run(until=sim.spawn(app(sim)))
    assert out["set"].stages["slab_alloc"] > 0
    assert out["set"].stages["cache_update"] > 0
    assert out["get"].stages["cache_check_load"] > 0


def test_default_design_holds_credit_until_processed():
    cfg = ServerConfig(mem_limit=16 * MB, early_ack=False, recv_credits=1)
    sim, server, ep = make_rig(cfg)
    release_times = []

    def app(sim):
        yield from raw_set(sim, server, ep, 1, b"a", 32 * KB)
        release_times.append(sim.now)

    def watcher(sim):
        # With 1 credit, a second acquire waits for full SET processing.
        yield sim.timeout(1 * US)
        credit = server.credits.request()
        yield credit
        release_times.append(("credit", sim.now))
        server.credits.release(credit)

    sim.spawn(app(sim))
    sim.spawn(watcher(sim))
    sim.run()
    assert len(release_times) == 2


def test_early_ack_releases_credit_before_response():
    """Optimized server: the credit frees after staging, i.e. earlier."""
    def run(early):
        cfg = ServerConfig(mem_limit=16 * MB, early_ack=early, recv_credits=1)
        sim, server, ep = make_rig(cfg)
        times = {}

        def app(sim):
            header = SetRequest(req_id=1, op="set", key=b"a",
                                value_length=32 * KB, inline_value=False)
            ep.send(header, header.header_bytes)
            credit = server.credits.request()
            yield credit
            ep.send(ValueArrival(req_id=1, nbytes=32 * KB, credit=credit),
                    32 * KB, one_sided=True)
            # Try to get the credit back — its grant time marks release.
            second = server.credits.request()
            yield second
            times["credit_back"] = sim.now
            server.credits.release(second)
            d = yield ep.recv()
            times["response"] = sim.now

        sim.run(until=sim.spawn(app(sim)))
        return times

    opt = run(early=True)
    deflt = run(early=False)
    assert opt["credit_back"] < opt["response"]
    assert deflt["credit_back"] >= opt["credit_back"]


def test_worker_threads_process_concurrently():
    cfg = ServerConfig(mem_limit=16 * MB, worker_threads=4)
    sim, server, ep = make_rig(cfg)
    done = []

    def one(sim, i):
        r = yield from raw_set(sim, server, ep, i, f"k{i}".encode(), 1 * KB)
        done.append(r.status)

    # NOTE: a single connection pump serializes inbox pulls; use distinct
    # req ids and let the four workers overlap the processing.
    def app(sim):
        procs = [sim.spawn(one(sim, i)) for i in range(8)]
        yield sim.all_of(procs)

    sim.run(until=sim.spawn(app(sim)))
    assert done.count(STORED) == 8


def test_hybrid_server_spills_and_serves_from_ssd():
    cfg = ServerConfig(mem_limit=2 * MB, ssd=SATA_SSD, ssd_limit=32 * MB,
                       io_policy="adaptive", early_ack=True)
    sim, server, ep = make_rig(cfg)
    results = []

    def app(sim):
        for i in range(100):
            yield from raw_set(sim, server, ep, i, f"k{i}".encode(), 30 * KB)
        for i in range(100):
            r = yield from raw_get(sim, ep, 1000 + i, f"k{i}".encode())
            results.append(r.status)

    sim.run(until=sim.spawn(app(sim)))
    assert server.manager.stats.flushes > 0
    assert results.count(HIT) == 100  # hybrid: nothing lost


def test_inmemory_server_loses_cold_data():
    cfg = ServerConfig(mem_limit=2 * MB)
    sim, server, ep = make_rig(cfg)
    results = []

    def app(sim):
        for i in range(100):
            yield from raw_set(sim, server, ep, i, f"k{i}".encode(), 30 * KB)
        for i in range(100):
            r = yield from raw_get(sim, ep, 1000 + i, f"k{i}".encode())
            results.append(r.status)

    sim.run(until=sim.spawn(app(sim)))
    assert results.count(MISS) > 0
    assert server.manager.stats.ram_evictions > 0


def test_preload_counts():
    sim, server, ep = make_rig()
    n = server.preload((f"k{i}".encode(), 8 * KB) for i in range(50))
    assert n == 50
    assert len(server.manager.table) == 50


def test_stats_stage_accumulation():
    sim, server, ep = make_rig()

    def app(sim):
        yield from raw_set(sim, server, ep, 1, b"k", 8 * KB)
        yield from raw_get(sim, ep, 2, b"k")

    sim.run(until=sim.spawn(app(sim)))
    assert server.stats.stage_time["slab_alloc"] > 0
    assert server.stats.stage_time["cache_check_load"] > 0
    assert server.stats.stage_time["server_response"] > 0
    assert server.stats.busy_time > 0


def test_mget_miss_accounts_the_stages_a_get_miss_does():
    from repro.server.protocol import MultiGetRequest

    def miss_stages(send):
        sim, server, ep = make_rig()

        def app(sim):
            send(ep)
            d = yield ep.recv()
            assert d.payload.status == MISS

        sim.run(until=sim.spawn(app(sim)))
        return server.stats.stage_time

    def get(ep):
        header = GetRequest(req_id=1, op="get", key=b"absent")
        ep.send(header, header.header_bytes)

    def mget(ep):
        header = MultiGetRequest(req_id=1, op="mget", key=b"absent",
                                 entries=((1, b"absent"),))
        ep.send(header, header.header_bytes)

    via_get = miss_stages(get)
    assert via_get["cache_check_load"] > 0
    assert miss_stages(mget) == via_get


def test_delete_request():
    from repro.server.protocol import DELETED, NOT_FOUND, DeleteRequest

    sim, server, ep = make_rig()
    out = []

    def app(sim):
        yield from raw_set(sim, server, ep, 1, b"k", 1 * KB)
        header = DeleteRequest(req_id=2, op="delete", key=b"k")
        ep.send(header, header.header_bytes)
        d = yield ep.recv()
        out.append(d.payload.status)
        header = DeleteRequest(req_id=3, op="delete", key=b"k")
        ep.send(header, header.header_bytes)
        d = yield ep.recv()
        out.append(d.payload.status)

    sim.run(until=sim.spawn(app(sim)))
    assert out == [DELETED, NOT_FOUND]

"""Tests for the server runtime: workers, credits, early acks, stats."""

from types import SimpleNamespace

import pytest

from repro.net.fabric import Fabric
from repro.net.transport import connect_rdma
from repro.obs.api import Observability
from repro.obs.registry import NullRegistry
from repro.server.protocol import (
    DELETED,
    HIT,
    MISS,
    STORED,
    Request,
    Response,
    ValueArrival,
)
from repro.server.server import MemcachedServer, ServerConfig
from repro.sim import Simulator
from repro.sim.events import Process
from repro.storage.params import SATA_SSD
from repro.units import KB, MB, US


def make_rig(config=None, profile=False, metrics=False):
    sim = Simulator()
    fabric = Fabric(sim)
    obs = (Observability(sim, metrics=metrics, profile=profile,
                         profile_keep_traces=True)
           if profile or metrics else None)
    server = MemcachedServer(sim, config or ServerConfig(mem_limit=16 * MB),
                             obs=obs)
    cli_ep, srv_ep = connect_rdma(sim, fabric.node("c"), fabric.node("s"))
    server.attach(srv_ep)
    server.start()
    return sim, server, cli_ep


def raw_set(sim, server, ep, req_id, key, nbytes, trace_id=None):
    """Drive the wire protocol by hand (no client library)."""
    from repro.server.protocol import BufferAck

    header = Request(req_id=req_id, op="set", key=key,
                     value_length=nbytes, inline_value=False,
                     trace_id=trace_id)
    ep.send(header, header.header_bytes)
    credit = server.credits.request()
    yield credit
    ep.write_polled(ValueArrival(req_id=req_id, nbytes=nbytes, credit=credit),
                    nbytes)
    while True:
        d = yield ep.recv()
        if not isinstance(d.payload, BufferAck):
            return d.payload


def raw_get(sim, ep, req_id, key, trace_id=None):
    header = Request(req_id=req_id, op="get", key=key, trace_id=trace_id)
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


def finished_spans(server, trace_id):
    """The ``(name, t0, t1)`` spans of a profiled request once it is
    finished."""
    prof = server.obs.profiler
    prof.finish(trace_id, SimpleNamespace(t_complete=server.sim.now,
                                          hit=True))
    (_tid, _cls, _t0, _t1, spans, _t_response), = (
        t for t in prof.traces if t[0] == trace_id)
    return spans


def stage_bounds(server, trace_id):
    """``{span name: (t0, t1)}`` of a finished request whose stages each
    ran once."""
    return {name: (t0, t1) for name, t0, t1 in finished_spans(server, trace_id)}


def fig2_spans(server, trace_id):
    """``{span name: seconds}`` of a profiled request's Fig 2 server
    stages (the dotted spans) once it is finished."""
    out = {}
    for name, t0, t1 in finished_spans(server, trace_id):
        if "." in name and name != "ssd.io":
            out[name] = out.get(name, 0.0) + (t1 - t0)
    return out


def test_handlers_record_the_fig2_server_stages():
    sim, server, ep = make_rig(profile=True)
    prof = server.obs.profiler
    tids = [prof.maybe_start("set"), prof.maybe_start("get")]

    def app(sim):
        yield from raw_set(sim, server, ep, 1, b"k", 32 * KB, tids[0])
        yield from raw_get(sim, ep, 2, b"k", tids[1])

    sim.run(until=sim.spawn(app(sim)))
    costs = server.config.costs
    set_spans, get_spans = (fig2_spans(server, tid) for tid in tids)
    assert set(set_spans) == {"index.slab_alloc", "index.cache_update",
                              "server_cpu.response"}
    assert set_spans["index.slab_alloc"] == pytest.approx(
        costs.slab_alloc_cpu)
    assert set(get_spans) == {"index.cache_check_load",
                              "index.cache_update", "server_cpu.response"}
    assert get_spans["index.cache_check_load"] == pytest.approx(
        costs.hash_lookup)
    for spans in (set_spans, get_spans):
        assert spans["index.cache_update"] == pytest.approx(costs.lru_update)
        assert spans["server_cpu.response"] == pytest.approx(
            costs.response_prep)


def test_touch_gat_and_incr_record_their_stages_as_get_does():
    """Every command that looks an item up and moves it to MRU records
    its lookup and its LRU update as GET does; a gat served from the
    SSD records the read as ``ssd.cache_check_load``, the device I/O
    under it tagged with the request's trace."""
    cfg = ServerConfig(mem_limit=2 * MB, ssd=SATA_SSD, ssd_limit=32 * MB)
    sim, server, ep = make_rig(cfg, profile=True)
    prof = server.obs.profiler
    keys = [f"k{i}".encode() for i in range(100)]
    headers = {
        "touch": Request(req_id=1, op="touch", key=keys[-1]),
        "gat": Request(req_id=2, op="gat", key=keys[-1]),
        "incr-create": Request(req_id=3, op="incr", key=b"n", initial=0),
        "incr": Request(req_id=4, op="incr", key=b"n"),
        "gat-ssd": Request(req_id=5, op="gat", key=keys[0]),
    }
    tids = {}

    def app(sim):
        for i, key in enumerate(keys):  # 3 MB: the first pages spill
            yield from raw_set(sim, server, ep, 100 + i, key, 30 * KB)
        assert server.manager.table[keys[0]].on_ssd
        for name, header in headers.items():
            header.trace_id = tids[name] = prof.maybe_start(header.op)
            ep.send(header, header.header_bytes)
            yield ep.recv()

    sim.run(until=sim.spawn(app(sim)))
    costs = server.config.costs
    for name, tid in tids.items():
        spans = fig2_spans(server, tid)
        expected = {"index.cache_check_load", "index.cache_update",
                    "server_cpu.response"}
        if name == "gat-ssd":
            expected.add("ssd.cache_check_load")
        assert set(spans) == expected, name
        assert spans["index.cache_check_load"] == pytest.approx(
            costs.hash_lookup)
        assert spans["index.cache_update"] == pytest.approx(costs.lru_update)
    tagged = {t[0] for t in prof.traces
              if any(span[0] == "ssd.io" for span in t[4])}
    assert tagged == {tids["gat-ssd"]}


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
            header = Request(req_id=1, op="set", key=b"a",
                             value_length=32 * KB, inline_value=False)
            ep.send(header, header.header_bytes)
            credit = server.credits.request()
            yield credit
            ep.write_polled(ValueArrival(req_id=1, nbytes=32 * KB,
                                         credit=credit), 32 * KB)
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


def test_stats_accumulate_busy_time():
    sim, server, ep = make_rig()

    def app(sim):
        yield from raw_set(sim, server, ep, 1, b"k", 8 * KB)
        yield from raw_get(sim, ep, 2, b"k")

    sim.run(until=sim.spawn(app(sim)))
    assert server.stats.sets == 1 and server.stats.gets == 1
    assert server.stats.busy_time > 0


def test_mget_miss_accounts_the_stages_a_get_miss_does():
    def miss_stages(send):
        sim, server, ep = make_rig(profile=True)
        tid = server.obs.profiler.maybe_start("get")

        def app(sim):
            send(ep, tid)
            d = yield ep.recv()
            assert d.payload.status == MISS

        sim.run(until=sim.spawn(app(sim)))
        return fig2_spans(server, tid)

    def get(ep, tid):
        header = Request(req_id=1, op="get", key=b"absent", trace_id=tid)
        ep.send(header, header.header_bytes)

    def mget(ep, tid):
        header = Request(req_id=1, op="mget", key=b"",
                         entries=((1, b"absent"),), traces=(tid,))
        ep.send(header, header.header_bytes)

    via_get = miss_stages(get)
    assert via_get["index.cache_check_load"] > 0
    assert miss_stages(mget) == via_get


def test_delete_request():
    from repro.server.protocol import NOT_FOUND

    sim, server, ep = make_rig()
    out = []

    def app(sim):
        yield from raw_set(sim, server, ep, 1, b"k", 1 * KB)
        header = Request(req_id=2, op="delete", key=b"k")
        ep.send(header, header.header_bytes)
        d = yield ep.recv()
        out.append(d.payload.status)
        header = Request(req_id=3, op="delete", key=b"k")
        ep.send(header, header.header_bytes)
        d = yield ep.recv()
        out.append(d.payload.status)

    sim.run(until=sim.spawn(app(sim)))
    assert out == [DELETED, NOT_FOUND]


def test_delete_and_replica_applies_touch_no_counter_with_metrics_off(
        monkeypatch):
    """With the registry off a handler skips its counters, as the SET
    and GET handlers do: a NULL counter's ``inc`` is never called."""
    sim, server, ep = make_rig()
    out = []

    def no_inc(_counter, amount=1.0):
        raise AssertionError("a NULL counter was incremented")

    def app(sim):
        yield from raw_set(sim, server, ep, 1, b"k", 1 * KB)
        yield from raw_set(sim, server, ep, 2, b"r", 1 * KB)
        headers = [Request(req_id=3, op="delete", key=b"k"),
                   Request(req_id=4, op="delete", key=b"r", replica=True),
                   Request(req_id=5, op="incr", key=b"n", initial=0,
                           replica=True)]
        for header in headers:
            ep.send(header, header.header_bytes)
            d = yield ep.recv()
            out.append(d.payload.status)

    monkeypatch.setattr(type(NullRegistry._COUNTER), "inc", no_inc)
    sim.run(until=sim.spawn(app(sim)))
    assert out == [DELETED, DELETED, STORED]
    assert server.stats.deletes == 1 and server.stats.replica_applies == 2


# -- the SET's LRU update and response prep ----------------------------------

def worker_wakes(monkeypatch):
    """``(instant, generator)`` of each server-worker resume from now
    on: the innermost generator the timer wakes it in. A process binds
    its resume callback when it is spawned, so call this before the
    rig starts its workers."""
    wakes = []
    resume = Process._resume

    def spy(process, event):
        if "-worker" in process.name:
            gen = process._gen
            while getattr(gen.gi_yieldfrom, "gi_code", None) is not None:
                gen = gen.gi_yieldfrom
            wakes.append((process.sim.now, gen.gi_code.co_name))
        resume(process, event)

    monkeypatch.setattr(Process, "_resume", spy)
    return wakes


def test_a_set_whose_store_slept_keeps_its_lru_timer(monkeypatch):
    """With early ack a SET holds no credit past its slab allocation, so
    its LRU update rides the response timer — unless ``store`` slept:
    a SET that flushed a slab page wakes at the update's end and is
    sent at ``((t_store_end + lru_update) + response_prep)``."""
    wakes = worker_wakes(monkeypatch)
    cfg = ServerConfig(mem_limit=2 * MB, ssd=SATA_SSD, ssd_limit=32 * MB,
                       early_ack=True)
    sim, server, ep = make_rig(cfg, profile=True)
    prof = server.obs.profiler
    tids = []

    def app(sim):
        for i in range(100):  # 3 MB: the first pages spill
            tids.append(prof.maybe_start("set"))
            yield from raw_set(sim, server, ep, i, f"k{i}".encode(), 30 * KB,
                               tids[-1])

    sim.run(until=sim.spawn(app(sim)))
    costs = server.config.costs
    woken = {t for t, name in wakes if name == "_handle_set"}
    slept = folded = 0
    for tid in tids:
        spans = stage_bounds(server, tid)
        flush = spans.get("ssd.slab_alloc")
        t_store = flush[1] if flush else spans["index.slab_alloc"][1]
        updated = t_store + costs.lru_update
        assert spans["index.cache_update"] == (t_store, updated)
        assert spans["server_cpu.response"] == (
            updated, updated + costs.response_prep)
        assert (updated in woken) == (flush is not None)
        slept += flush is not None
        folded += flush is None
    assert server.manager.stats.flushes > 0 and slept > 0 and folded > 0


def test_a_default_server_releases_the_credit_where_the_update_ends(
        monkeypatch):
    """Without early ack the credit is held through the LRU update: it
    goes back at exactly ``t_store + lru_update``, and the hold it
    records runs from its grant to there."""
    sim, server, ep = make_rig(profile=True, metrics=True)
    tid = server.obs.profiler.maybe_start("set")
    released = []
    release = server._release_credit

    def spy(credit):
        released.append((sim.now, credit.granted_at))
        release(credit)

    monkeypatch.setattr(server, "_release_credit", spy)
    sim.run(until=sim.spawn(raw_set(sim, server, ep, 1, b"k", 32 * KB, tid)))
    spans = stage_bounds(server, tid)
    t_store = spans["index.slab_alloc"][1]
    (at, granted), = released
    assert at == t_store + server.config.costs.lru_update
    assert spans["index.cache_update"] == (t_store, at)
    hold = server._m_credit_hold
    assert hold.count == 1 and hold.total == at - granted


@pytest.mark.parametrize("early_ack", [True, False], ids=["folded", "default"])
def test_a_crash_in_the_sets_last_burst_sends_no_response(early_ack):
    """A crash between the store and the send, in the LRU update or in
    the response prep: the SET's response never leaves and its worker is
    not busy at quiesce, whether the update rode the response timer
    (early ack) or its own (default)."""
    cfg = ServerConfig(mem_limit=16 * MB, early_ack=early_ack)
    costs = cfg.costs

    def run(crash_at=None):
        sim, server, ep = make_rig(cfg, profile=True)
        tid = server.obs.profiler.maybe_start("set")
        done = sim.spawn(raw_set(sim, server, ep, 1, b"k", 32 * KB, tid))
        if crash_at is not None:
            sim.spawn(crash(sim, server, crash_at))
        sim.run()
        return server, done, tid

    server, done, tid = run()
    assert isinstance(done.value, Response)
    spans = stage_bounds(server, tid)
    t_store = spans["index.slab_alloc"][1]
    for crash_at in (t_store + costs.lru_update / 2,
                     t_store + costs.lru_update + costs.response_prep / 2):
        server, done, _tid = run(crash_at)
        assert not server.alive and not done.triggered  # no response came
        assert server._busy_workers == 0 and not server._value_events
        assert server.stats.sets == 1


def crash(sim, server, at):
    yield sim.timeout(at)
    server.crash()

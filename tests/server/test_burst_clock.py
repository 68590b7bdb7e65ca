"""A server worker's CPU-burst clock (:class:`repro.sim.BurstClock`).

Its own rules on a bare simulator first: what timer ``sleep`` posts for
what was charged, and when a charge opens a new burst. Then the single
burst rule where a server meets it at a wait that takes no time.
"""

from unittest import mock

from repro import build_cluster, profiles
from repro.core.cluster import ClusterSpec
from repro.server.protocol import Request
from repro.server.server import MemcachedServer, ServerCosts
from repro.sim import BurstClock, Simulator
from repro.sim.events import Process
from repro.units import KB, MB, US

A, B, C = 0.3 * US, 0.7 * US, 1.1 * US


def _heap_entry(sim, timer):
    """``(due, posted)`` of a timer on the heap."""
    (entry,) = [e for e in sim._queue if e[3] is timer]
    return entry[0], entry[1]


def _run(sim, gen):
    return sim.run(until=sim.spawn(gen))


def test_one_timer_is_due_at_the_sum_and_posted_at_the_last_stage():
    sim = Simulator()
    clock = BurstClock(sim)
    got = {}

    def worker():
        clock.charge(A)
        clock.charge(B)
        timer = clock.sleep()
        got["entry"] = _heap_entry(sim, timer)
        yield timer
        # Two costs charged as one stage: posted where the stage starts.
        clock.charge(B, C)
        timer = clock.sleep()
        got["joined"] = _heap_entry(sim, timer)
        yield timer

    _run(sim, worker())
    assert got["entry"] == ((0.0 + A) + B, 0.0 + A)
    assert got["joined"] == (((A + B) + B) + C, A + B)
    assert sim.now == ((A + B) + B) + C


def test_a_wait_that_takes_time_opens_a_burst_and_one_that_takes_none_does_not():
    sim = Simulator()
    clock = BurstClock(sim)
    got = []

    def worker():
        assert not clock.charge(A)  # the clock starts at the simulator's
        yield clock.sleep()
        yield sim.timeout(0)  # a lane hop: no time passes
        got.append((clock.charge(B), clock.start))
        yield clock.sleep()
        yield sim.timeout(C)  # a real wait
        got.append((clock.charge(A), clock.start))
        yield clock.sleep()

    _run(sim, worker())
    assert got == [(False, A), (True, (A + B) + C)]


def test_sleeping_nothing_posts_nothing():
    sim = Simulator()
    clock = BurstClock(sim)

    def worker():
        yield clock.sleep()
        clock.charge(A)
        yield clock.sleep()
        yield clock.sleep()

    before = sim.events_processed
    _run(sim, worker())
    # The process's start, its one timer and its end.
    assert sim.events_processed - before == 3
    assert sim.now == A


def test_poll_until_and_drop():
    sim = Simulator()
    clock = BurstClock(sim)
    clock.charge(A)
    clock.poll_until(A / 2)  # earlier than the charged time: no effect
    assert clock.instant == A
    clock.poll_until(C)
    clock.charge(B)
    assert (clock.start, clock.instant) == (C, C + B)
    clock.drop()
    assert clock.instant == sim.now == 0.0
    assert clock.sleep().processed


def test_a_promotion_that_waits_no_time_does_not_end_the_burst():
    """The single burst rule at a zero-time wait. An SSD-tier GET
    served from the page cache promotes its item into a slab class
    with no free chunk: ``_make_space`` takes the flush lock (a lane
    hop, so it yields) and re-purposes another class's empty page, and
    no simulated time passes. A wait ends a burst only when it takes
    time, so this one does not: the LRU update rides the response's
    timer, as it does after a promotion into a free chunk."""
    waits, received = [], []
    resume, receive = Process._resume, MemcachedServer._receive

    def spy(process, event):
        if "-worker" in process.name:
            gen = process._gen
            while getattr(gen.gi_yieldfrom, "gi_code", None) is not None:
                gen = gen.gi_yieldfrom
            waits.append((process.sim.now, gen.gi_code.co_name))
        resume(process, event)

    def spy_receive(server, msg):
        received.append((server.sim.now, msg.recv_cpu, msg.payload))
        receive(server, msg)

    # A process binds its resume callback and a connection its receiver
    # when they are made.
    with mock.patch.object(Process, "_resume", spy), \
            mock.patch.object(MemcachedServer, "_receive", spy_receive):
        cluster = build_cluster(profiles.H_RDMA_OPT_BLOCK, spec=ClusterSpec(
            server_mem=2 * MB, ssd_limit=64 * MB, profile=True,
            profile_keep_traces=True))
        sim, client = cluster.sim, cluster.clients[0]
        manager = cluster.servers[0].manager
        # One page of the 100 KiB class, then 4 KiB values until their
        # first page spills and their class is full again.
        cluster.preload([(b"big", 100 * KB)])
        i = 0
        while not manager.items_on_ssd or manager._class_has_room(small):
            cluster.preload([(b"small-%d" % i, 4 * KB)])
            small = manager.allocator.classes[manager.table[b"small-0"].clsid]
            i += 1
        big = manager.allocator.classes[manager.table[b"big"].clsid]
        manager.delete(b"big")
        assert [page.used for page in big.pages] == [0]
        item = manager.table[b"small-0"]
        slot = item.disk_slot
        assert slot.scheme_name == "mmap"

        def app():
            yield from manager.pagecache.read(slot.offset,
                                              manager.allocator.page_size)
            yield from client.get(b"small-0")

        _run(sim, app())
    assert item.in_ram and not big.pages  # promoted into the stolen page
    assert manager.stats.flushes == 0

    c = ServerCosts()
    pc = cluster.servers[0].config.pagecache
    t, recv = next((t, recv) for t, recv, p in received
                   if isinstance(p, Request))
    looked_up = ((t + recv) + c.parse) + c.hash_lookup
    loaded = looked_up + item.total_size / pc.memcpy_bandwidth
    updated = loaded + c.lru_update
    (trace,) = cluster.obs.profiler.traces
    stages = ("ssd.cache_check_load", "index.cache_update",
              "server_cpu.response")
    assert [s for s in trace[4] if s[0] in stages] == [
        ("ssd.cache_check_load", looked_up, loaded),
        ("index.cache_update", loaded, updated),
        ("server_cpu.response", updated, updated + c.response_prep)]
    # The worker woke at the memcpy's end (in the page cache's read), in
    # _make_space's lane hop at the same instant and at the response
    # prep's end: never in _cache_update.
    assert waits[-3:] == [(loaded, "read"), (loaded, "_make_space"),
                          (updated + c.response_prep, "_respond")]

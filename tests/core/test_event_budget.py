"""Event budgets: what one operation costs the engine, exactly.

``Simulator.events_processed`` counts events popped, so on a 1x1
cluster in steady state (1x2 with two copies of every key for the
``/r2`` rows) every operation of a kind costs the same whole number of
events. That number is machine-independent, and committed
in ``tests/golden/event_budget.json``: a change that adds an event to a
request path fails this file and has to say why (docs/performance.md,
"Event budget"). Profiling is pure observation, so each budget must
hold with the request profiler off **and** on.

The budgets are low because every queued event has an observer
(docs/performance.md, "Event budget"): message milestones, ``buffer_safe``
and per-put store events exist only where something waits on them —
which is why ``bget`` costs one event more than ``iget`` + ``wait``
(its ``buffer_safe`` adds two; it skips the issue sleep ``iget``'s
caller takes) — and because a hand-off inside one simulated instant is
a call: a frame reaches the server's worker queue, a queued job its
parked consumer and a response its waiter without a lane hop in
between — and because a server worker sleeps one timer per
uninterrupted run of CPU stages.

The second exact column is heap pushes per operation: the timers that
really wait for a later instant, read off the simulator's tie-break
counter (one draw per push). The third is generator resumes per
operation — calls of ``Process._resume``, counted by a spy this file
installs (the engine keeps no counter of its own); it is recorded as it
is today, the cost ROADMAP item 3 is about, not a target. The fourth
is objects constructed per operation, counted by a ``sys.setprofile``
hook: each ``__init__`` frame of a class defined in the package, and
each ``object.__new__`` call its code makes (timers are made that way).
It is pinned with the profiler off, which constructs its own records.
A failing budget prints the moved columns, the entry to paste, and the
events of one more operation, one per line. The file's ``device`` table
holds the same four columns for one I/O on a bare block device.
"""

import collections
import dataclasses
import itertools
import re
import sys
from pathlib import Path

import pytest

import repro
from repro import build_cluster, profiles
from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.topology import TopologyConfig
from repro.net.fabric import NIC
from repro.sim import BurstClock, Simulator
from repro.sim.events import Event, Process
from repro.sim.resources import Request
from repro.storage.device import BlockDevice, DeviceIO
from repro.storage.pagecache import PageCache
from repro.storage.params import SATA_SSD, PageCacheParams
from repro.storage.schemes import make_scheme
from repro.units import KB, MB
from tests.golden import load, mismatch

KEY = b"key"
COUNTER = b"counter"


def _get(c):
    yield from c.get(KEY)


def _set(c):
    yield from c.set(KEY, 4 * KB)


def _iget_wait(c):
    req = yield from c.iget(KEY)
    yield from c.wait(req)


def _iset_wait(c):
    req = yield from c.iset(KEY, 4 * KB)
    yield from c.wait(req)


def _bget(c):
    req = yield from c.bget(KEY)
    yield from c.wait(req)


def _bset(c):
    req = yield from c.bset(KEY, 4 * KB)
    yield from c.wait(req)


def _delete(c):
    yield from c.delete(KEY)  # the first one finds it, the rest miss


def _touch(c):
    yield from c.touch(KEY, 0.0)


def _incr(c):
    yield from c.incr(COUNTER, 1)


def _gat(c):
    yield from c.gat(KEY, 0.0)


def _stats(c):
    yield from c.stats(0)


def _mget(c):
    yield from c.mget([KEY, COUNTER])  # both stored by the warm-up


#: The operation each budget in ``tests/golden/event_budget.json`` times,
#: and the design it runs on.
OPS = {
    "get-hit/RDMA_MEM": (profiles.RDMA_MEM, _get),
    "set/RDMA_MEM": (profiles.RDMA_MEM, _set),
    "iget+wait/H_RDMA_OPT_NONB_I": (profiles.H_RDMA_OPT_NONB_I, _iget_wait),
    # Early ack: the BufferAck sits between copy and slab allocation, so
    # the slab allocation keeps its own timer; the ack itself is polled
    # and nobody here waits on it.
    "iset+wait/H_RDMA_OPT_NONB_I": (profiles.H_RDMA_OPT_NONB_I, _iset_wait),
    "set/H_RDMA_OPT_NONB_I": (profiles.H_RDMA_OPT_NONB_I, _set),
    # The b-variants observe the buffer-reuse point: bget waits on
    # buffer_safe, armed on the request's on_wire timer (+2 events, one
    # a push); bset's buffer_safe is armed on the BufferAck's delivered
    # milestone, the timer a waiter makes the polled ack cost (+2).
    "bget/H_RDMA_OPT_NONB_B": (profiles.H_RDMA_OPT_NONB_B, _bget),
    "bset/H_RDMA_OPT_NONB_B": (profiles.H_RDMA_OPT_NONB_B, _bset),
    # IPoIB: the response's one timer ends the client socket's kernel
    # receive, and the client's receiver runs there.
    "get-hit/FATCACHE": (profiles.FATCACHE, _get),
    "set/FATCACHE": (profiles.FATCACHE, _set),
    "get-hit/IPOIB_MEM": (profiles.IPOIB_MEM, _get),
    "set/IPOIB_MEM": (profiles.IPOIB_MEM, _set),
    "delete/RDMA_MEM": (profiles.RDMA_MEM, _delete),
    "touch/RDMA_MEM": (profiles.RDMA_MEM, _touch),
    "incr/RDMA_MEM": (profiles.RDMA_MEM, _incr),
    "gat/RDMA_MEM": (profiles.RDMA_MEM, _gat),
    "stats/RDMA_MEM": (profiles.RDMA_MEM, _stats),
    # Two copies of every key on a 1x2 cluster (sync writes): a SET
    # holds its caller for both acks, a GET reads the primary alone.
    "set/RDMA_MEM/r2": (profiles.RDMA_MEM, _set),
    "get-hit/RDMA_MEM/r2": (profiles.RDMA_MEM, _get),
    # A second, idle client on the timed client's node: the two share a
    # NIC, so the engine sleeps to every job's send instant, and a SET's
    # free credit takes the ``request()`` hop.
    "get-hit/RDMA_MEM/shared-nic": (profiles.RDMA_MEM, _get),
    "set/RDMA_MEM/shared-nic": (profiles.RDMA_MEM, _set),
    # The registered-buffer pool modelled: the engine sleeps to the send
    # instant, then draws a buffer (a reuse, free, in steady state).
    "get-hit/RDMA_MEM/registration": (profiles.RDMA_MEM, _get),
    "set/RDMA_MEM/registration": (profiles.RDMA_MEM, _set),
    # Two keys on one server: one batched job, entered on the caller's
    # clock.
    "mget-2/RDMA_MEM": (profiles.RDMA_MEM, _mget),
}
#: SSD-tier GETs on a warm hybrid 1x1 (``_warm_ssd_cluster``): the
#: design, the I/O scheme the value's slab class is read through, and
#: where the value is found: the page cache, the device (through a cold
#: page cache, or directly) or the staging buffer of an asynchronous
#: flush still in flight. A hit under cached I/O sleeps syscall and
#: memcpy as one timer; under mmap it faults nothing and sleeps the
#: memcpy; a miss under cached I/O sleeps its syscall, waits for the
#: device and sleeps the memcpy, and under mmap sleeps its faults
#: instead of the syscall. A staging-buffer hit sleeps its memcpy. A
#: direct-I/O miss wakes at the device and sleeps the LRU update on its
#: own timer before the response's.
SSD_OPS = {
    "get-ssd/cached-hit/H_RDMA_OPT_BLOCK": (profiles.H_RDMA_OPT_BLOCK, "cached", "pagecache"),
    "get-ssd/mmap-hit/H_RDMA_OPT_BLOCK": (profiles.H_RDMA_OPT_BLOCK, "mmap", "pagecache"),
    "get-ssd/cached-miss/H_RDMA_OPT_BLOCK": (profiles.H_RDMA_OPT_BLOCK, "cached", "device"),
    "get-ssd/mmap-miss/H_RDMA_OPT_BLOCK": (profiles.H_RDMA_OPT_BLOCK, "mmap", "device"),
    "get-ssd/direct-miss/H_RDMA_DEF": (profiles.H_RDMA_DEF, "direct", "device"),
    "get-ssd/staging-hit/H_RDMA_DEF": (profiles.H_RDMA_DEF, "direct", "staging"),
}
#: A SET whose store flushes a slab page (direct I/O) to make room: the
#: store slept, so the LRU update keeps its own timer
#: (``_flushing_cluster``).
FLUSH_OP = "set/flush/H_RDMA_DEF"
#: The replication the ``/r2`` budgets run with (none for the others).
R2 = ReplicationConfig(factor=2)
#: The budget-name suffixes that change the warm cluster
#: (``_warm_cluster``).
VARIANTS = ("r2", "shared-nic", "registration")
PINS = load("event_budget")["budgets"]


def _read_4k(dev):
    yield dev.read(4 * KB)


def _read_1m(dev):
    yield dev.read(1 * MB)  # four pipe quanta of 256 KiB


def _write_4k(dev):
    yield dev.write(4 * KB)


def _read_queued(dev):
    # ``parallelism`` reads take every slot; one more queues for the
    # first slot to come free and completes last.
    for _ in range(dev.params.parallelism):
        dev.read(4 * KB)
    yield dev.read(4 * KB)


#: What one I/O on a bare ``SATA_SSD`` costs the engine: the budgets in
#: ``tests/golden/event_budget.json``'s ``device`` table.
DEVICE_OPS = {
    "read-4KiB/SATA_SSD": _read_4k,
    "read-1MiB/SATA_SSD": _read_1m,
    "write-4KiB/SATA_SSD": _write_4k,
    "read-4KiB-queued-behind-parallelism/SATA_SSD": _read_queued,
}
DEVICE_PINS = load("event_budget")["device"]


@pytest.fixture
def resumes(monkeypatch):
    """Calls of ``Process._resume`` so far, as a one-element list. A
    process binds its resume callback when it is created, so this has
    to be in place before the cluster is built."""
    calls = [0]
    resume = Process._resume

    def spy(process, event):
        calls[0] += 1
        resume(process, event)

    monkeypatch.setattr(Process, "_resume", spy)
    return calls


def _warm_cluster(profile, profiled, variant=""):
    """A cluster of one client and one server per copy of a key, with
    the key and the counter stored and every lazy process started.
    ``variant`` is a budget-name suffix: ``r2`` keeps two copies of
    every key (sync writes), ``shared-nic`` adds an idle second client
    on the first one's node, ``registration`` models the client's
    registered-buffer pool."""
    replication = R2 if variant == "r2" else ReplicationConfig()
    shared = variant == "shared-nic"
    cluster = build_cluster(profile, spec=ClusterSpec(
        topology=TopologyConfig(initial_servers=replication.factor),
        num_clients=2 if shared else 1, client_nodes=1,
        server_mem=32 * MB, ssd_limit=64 * MB, profile=profiled,
        replication=replication))
    client, sim = cluster.clients[0], cluster.sim
    assert client._nic_shared == shared
    if variant == "registration":
        client.config = dataclasses.replace(client.config,
                                            model_registration=True)

    def warm():
        yield from client.set(KEY, 4 * KB)
        yield from client.get(KEY)
        yield from client.incr(COUNTER, 1, initial=0)

    sim.run(until=sim.spawn(warm()))
    return cluster


def _warm_ssd_cluster(profile, scheme, source, profiled):
    """A hybrid 1x1 cluster whose first slab page of 4 KiB values has
    spilled to an SSD slot read through ``scheme``, and an operation
    that GETs the slot's next key. ``source`` says where that GET finds
    its value: ``pagecache`` (the slot's pages are read into the page
    cache first), ``device`` or ``staging`` (the page was flushed by a
    SET, asynchronously, and its device write is still in flight: it
    ends more than the device's write latency after the flush, well
    after the operations). Each GET promotes its item into a free chunk
    of the page the spill recycled, so no promotion sleeps or flushes."""
    staging = source == "staging"
    cluster = build_cluster(profile, spec=ClusterSpec(
        server_mem=2 * MB, ssd_limit=64 * MB, profile=profiled,
        adaptive_cutoff=32 * KB if scheme == "mmap" else 0,
        async_flush=staging))
    client, sim = cluster.clients[0], cluster.sim
    manager = cluster.servers[0].manager
    first = b"ssd-0"

    def spilled():
        return first in manager.table and manager.table[first].on_ssd

    def fill():
        i = 0
        while not spilled():
            yield from client.set(b"ssd-%d" % i, 4 * KB)
            i += 1

    if staging:
        sim.run(until=sim.spawn(fill()))
    else:
        i = 0
        while not spilled():
            cluster.preload([(b"ssd-%d" % i, 4 * KB)])
            i += 1
    slot = manager.table[first].disk_slot
    assert slot.scheme_name == scheme and slot.durable != staging
    keys = iter([item.key for item in slot.items if item is not None])

    def warm():
        if source == "pagecache":
            yield from manager.pagecache.read(slot.offset,
                                              manager.allocator.page_size)
        yield from client.get(next(keys))

    sim.run(until=sim.spawn(warm()))

    def op(c):
        yield from c.get(next(keys))

    return cluster, op


def _flushing_cluster(profiled):
    """A hybrid 1x1 cluster of 64 KiB slab pages whose RAM is full of
    40 KiB values, one to a page, and an operation that SETs a new key:
    each store flushes the coldest page to the SSD (direct I/O) to make
    room for its chunk."""
    cluster = build_cluster(profiles.H_RDMA_DEF, spec=ClusterSpec(
        server_mem=2 * MB, ssd_limit=64 * MB, page_size=64 * KB,
        profile=profiled))
    client, sim = cluster.clients[0], cluster.sim
    manager = cluster.servers[0].manager
    cluster.preload([(b"fill-%d" % i, 40 * KB) for i in range(40)])
    keys = (b"flush-%d" % i for i in itertools.count())

    def op(c):
        yield from c.set(next(keys), 40 * KB)

    sim.run(until=sim.spawn(op(client)))
    assert manager.stats.flushes == 1
    return cluster, op


#: The package's source directory: an ``object.__new__`` call counts as
#: a construction when code under it makes it.
_SRC = str(Path(repro.__file__).parent)


def _object_counter(count):
    """A ``sys.setprofile`` hook adding one to ``count[0]`` per object the
    package constructs: each ``__init__`` frame of a class defined in it
    (a ``super().__init__`` call is a frame of its own), and each
    ``object.__new__`` call its code makes (the timers' fast path)."""
    new = object.__new__

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_name != "__init__" or not code.co_argcount:
                return
            obj = frame.f_locals[code.co_varnames[0]]
            for cls in type(obj).__mro__:
                init = cls.__dict__.get("__init__")
                if getattr(init, "__code__", None) is code:
                    if cls.__module__.startswith("repro."):
                        count[0] += 1
                    return
        elif event == "c_call" and arg is new and \
                frame.f_code.co_filename.startswith(_SRC):
            count[0] += 1

    return hook


def _costs_for(sim, op, n, resumes, objects):
    """``(events popped, heap pushes, generator resumes)`` of ``n``
    operations, each one ``yield from op()``, and with ``objects`` the
    objects constructed."""

    def app():
        for _ in range(n):
            yield from op()

    # Every heap push draws one tie-break value, so two draws of our own
    # bracket the run's (the lane draws none).
    before = sim.events_processed, next(sim._counter), resumes[0]
    made = [0]
    if objects:
        sys.setprofile(_object_counter(made))
    try:
        sim.run(until=sim.spawn(app()))
    finally:
        sys.setprofile(None)
    costs = (sim.events_processed - before[0],
             next(sim._counter) - before[1] - 1,
             resumes[0] - before[2])
    return costs + (made[0],) if objects else costs


def _callback_name(cb):
    cb = getattr(cb, "func", cb)  # functools.partial
    return getattr(cb, "__qualname__", repr(cb))


#: What a device I/O's callback on a popped event stands for.
_DEVICE_STAGES = {DeviceIO._slot_granted: "slot grant",
                  DeviceIO._latency_end: "latency end",
                  DeviceIO._pipe_granted: "pipe grant",
                  DeviceIO._chunk_end: "chunk end"}


def _device_stage(event):
    """`` [device op bytes: stage]`` for a device I/O's own event (a
    grant hop, its latency or chunk timer, its completion), else ``""``.
    The last chunk's end runs the I/O's waiter: its line also names the
    process it hands the completion to."""
    if isinstance(event, DeviceIO):
        io, stage = event, "completion"
    else:
        cb = next((cb for cb in event.callbacks
                   if isinstance(getattr(cb, "__self__", None), DeviceIO)),
                  None)
        if cb is None:
            return ""
        io, stage = cb.__self__, _DEVICE_STAGES[cb.__func__]
        if stage == "chunk end":
            stage += f", {io.remaining - io.chunk} B to go"
    op = "write" if io.write else "read"
    line = f" [{io.device.name} {op} {io.nbytes} B: {stage}]"
    if stage.endswith(", 0 B to go"):
        line += _process_stage(io)
    return line


def _generator_name(gen):
    """``module.Class.function`` of a suspended generator
    (``module.function`` outside a class): ``co_qualname`` needs Python
    3.11, so the class is the one on the frame's ``self`` that defines
    the code. Four storage generators are all called ``read``."""
    code = gen.gi_code
    owner = gen.gi_frame.f_locals.get("self")
    cls = next((c for c in type(owner).__mro__
                if getattr(c.__dict__.get(code.co_name), "__code__", None)
                is code), None)
    qual = code.co_name if cls is None else f"{cls.__name__}.{code.co_name}"
    return f"{Path(code.co_filename).stem}.{qual}"


def _process_stage(event):
    """`` [process: stage]`` for the process ``event`` resumes, else
    ``""``. The stage of most processes is the innermost generator they
    are suspended in, by module and function (a server worker's
    ``server.MemcachedServer._worker`` pickup, a handler, ``_respond``,
    a storage ``read``); the client engine's is the stage it ends — its CPU
    for a job (``engine dispatch``) or a SET value's receive credit
    (``credit grant``) — and the request it is for."""
    proc = next((cb.__self__ for cb in event.callbacks
                 if isinstance(getattr(cb, "__self__", None), Process)), None)
    if proc is None:
        return ""
    if not proc.name.endswith("-engine"):
        gen = proc._gen
        while getattr(gen.gi_yieldfrom, "gi_code", None) is not None:
            gen = gen.gi_yieldfrom
        return f" [{proc.name}: {_generator_name(gen)}]"
    # The engine's locals: the request it unpacked from the job it took
    # (an mget's job keeps its requests; every other job is recycled at
    # the unpack).
    frame = proc._gen.gi_frame.f_locals
    stage = "credit grant" if isinstance(event, Request) else "engine dispatch"
    reqs = getattr(frame["job"], "reqs", None) or [frame["req"]]
    named = ", ".join(f"{r.api} #{r.req_id}" for r in reqs)
    return f" [{proc.name}: {stage}, {named}]"


def _event_list(sim, op):
    """One more operation, stepped: a line per popped event with its
    time, where it was queued, its type and who it wakes."""
    done = sim.spawn(op())
    done.callbacks.append(lambda _ev: None)  # observed, as run(until=) does
    lines = []
    while not done.processed:
        heap, lane = sim._queue, sim._lane
        # step()'s own choice: a due heap entry goes before the lane.
        source = "heap" if not lane or (heap and heap[0][0] <= sim.now) else "lane"
        event = heap[0][3] if source == "heap" else lane[0]
        wakes = ", ".join(_callback_name(cb) for cb in event.callbacks)
        if NIC._delivered in event.callbacks:
            # Which message this delivery hands over.
            wakes += f" [{type(event._value.payload).__name__}]"
        wakes += _process_stage(event) + _device_stage(event)
        sim.step()
        lines.append(f"{sim.now * 1e6:12.3f} us  {source}  "
                     f"{type(event).__name__:<10} -> {wakes}")
    return "\n".join(lines)


def _per_op(sim, op, resumes, objects=True):
    """Exact ``{events, pushes, resumes}`` of one operation, and with
    ``objects`` the objects it constructs, from runs of 10 and 20 (which
    must agree), or the mismatch message's event list."""
    ten = _costs_for(sim, op, 10, resumes, objects)
    twenty = _costs_for(sim, op, 20, resumes, objects)
    # The driver process costs two lane events per run (its Initialize
    # and its observed end), one resume (its start; every other one
    # happens inside an operation) and three constructions (its
    # Initialize, and its Process with that one's Event.__init__);
    # everything else is the operations'.
    driver = (2, 0, 1, 3)
    per_op = [tuple((c - d) / n for c, d in zip(costs, driver))
              for costs, n in ((ten, 10), (twenty, 20))]
    got = {col: int(n) if n.is_integer() else n
           for col, n in zip(("events", "pushes", "resumes", "objects"),
                             per_op[0])}
    return got, per_op[0] == per_op[1]


@pytest.mark.parametrize("profiled", [False, True], ids=["profile-off", "profile-on"])
@pytest.mark.parametrize("case", list(PINS))
def test_events_per_op_is_exactly_the_budget(case, profiled, resumes):
    if case in SSD_OPS:
        cluster, op = _warm_ssd_cluster(*SSD_OPS[case], profiled)
    elif case == FLUSH_OP:
        cluster, op = _flushing_cluster(profiled)
    else:
        profile, op = OPS[case]
        variant = case.rpartition("/")[2]
        cluster = _warm_cluster(profile, profiled,
                                variant if variant in VARIANTS else "")
    client, sim = cluster.clients[0], cluster.sim
    # The profiler constructs its records as it samples, so the objects
    # column is pinned with it off.
    got, steady = _per_op(sim, lambda: op(client), resumes,
                          objects=not profiled)
    pins = PINS
    if profiled:
        pins = {case: {col: n for col, n in PINS[case].items()
                       if col != "objects"}}
    msg = mismatch(case, got, pins)
    assert steady and not msg, (
        f"{msg}\nevents of one more operation (2 of them the driver's):\n"
        + _event_list(sim, lambda: op(client)))
    if profiled and op is not _stats:  # stats carries no trace
        assert cluster.obs.profiler.report().finished >= 30


@pytest.mark.parametrize("case", list(DEVICE_PINS))
def test_device_io_costs_exactly_the_budget(case, resumes):
    """The same three columns for one device I/O awaited by a driver
    process, with no server around it (the queued row counts the whole
    batch: ``parallelism`` reads nobody waits for and the queued one)."""
    assert set(DEVICE_PINS) == set(DEVICE_OPS)
    sim = Simulator()
    dev = BlockDevice(sim, SATA_SSD)
    op = DEVICE_OPS[case]
    got, steady = _per_op(sim, lambda: op(dev), resumes)
    msg = mismatch(case, got, DEVICE_PINS)
    assert steady and not msg, (
        f"{msg}\nevents of one more operation (2 of them the driver's):\n"
        + _event_list(sim, lambda: op(dev)))


def test_the_event_list_names_each_device_stage():
    """What a moved device budget prints: every device event says which
    I/O it belongs to and which stage it ends. No I/O completes in an
    event of its own: the last chunk's end hands the completion to the
    waiting process, and its line names that process."""
    sim = Simulator()
    dev = BlockDevice(sim, SATA_SSD)
    lines = _event_list(sim, lambda: _read_queued(dev)).splitlines()
    stages = re.findall(r"\[sata-ssd read \d+ B: ([^\]]+)\]", "\n".join(lines))
    assert stages.count("latency end") == dev.params.parallelism + 1
    assert stages.count("chunk end, 0 B to go") == dev.params.parallelism + 1
    assert {"slot grant", "pipe grant"} <= set(stages)
    assert "completion" not in stages
    assert not any(" DeviceIO " in line for line in lines)
    assert sum(line.endswith("0 B to go] [_read_queued: "
                             "test_event_budget._read_queued]")
               for line in lines) == 1
    assert "[sata-ssd read 1048576 B: chunk end, 786432 B to go]" in \
        _event_list(sim, lambda: _read_1m(dev))


def test_the_event_list_names_each_storage_generator():
    """A process waits in one of two storage generators called ``read``:
    the page cache's (its page faults or syscall, charged to the
    reader's clock by mmap or cached I/O, then the device, then the
    memcpy) and direct I/O's (the device). Each is named by module and
    class. A cold mmap read sleeps its faults, waits for the device and
    sleeps the memcpy; a cold cached read does the same with its
    syscall; a warm cached read sleeps its syscall and memcpy as one
    timer; a direct read wakes at the device's last chunk end."""
    sim = Simulator()
    dev = BlockDevice(sim, SATA_SSD)
    cache = PageCache(sim, dev, PageCacheParams())
    direct, cached, mmap = (make_scheme(kind, sim, dev, cache)
                            for kind in ("direct", "cached", "mmap"))
    clock = BurstClock(sim)

    def _reader():
        yield from mmap.read(0, 4 * KB, clock)
        yield from cached.read(64 * KB, 4 * KB, clock)
        yield from cached.read(64 * KB, 4 * KB, clock)
        yield from direct.read(128 * KB, 4 * KB, clock)

    lines = _event_list(sim, _reader).splitlines()
    assert re.findall(r"\[_reader: ([^\]]+)\]", "\n".join(lines)) == [
        "test_event_budget._reader",  # start
        "pagecache.PageCache.read",  # faults
        "pagecache.PageCache.read",  # device read (its last chunk end)
        "pagecache.PageCache.read",  # memcpy
        "pagecache.PageCache.read",  # syscall
        "pagecache.PageCache.read",  # device read (its last chunk end)
        "pagecache.PageCache.read",  # memcpy
        "pagecache.PageCache.read",  # syscall and memcpy of a hit
        "schemes.DirectIO.read",     # device read (its last chunk end)
    ]


def _engine_stages(lines):
    return [line.rpartition("[client0-engine: ")[2] for line in lines
            if "[client0-engine: " in line]


def test_the_event_list_names_each_engine_stage():
    """What a moved request budget prints: each process an event wakes
    is named, and the client engine's events say which stage ends and
    for which request. A client alone on its NIC claims a SET value's
    free credit inline, so its engine's one event ends its CPU for the
    job."""
    cluster = _warm_cluster(profiles.RDMA_MEM, profiled=False)
    client, sim = cluster.clients[0], cluster.sim
    lines = _event_list(sim, lambda: _set(client)).splitlines()
    req_id = client._next_req_id - 1
    assert _engine_stages(lines) == [f"engine dispatch, set #{req_id}]"]
    assert any("Process._resume [server0-worker" in line for line in lines)


def test_the_event_list_names_a_credit_grant():
    """A SET value's credit costs the engine an event of its own where
    the credit is granted after a lane hop: on a NIC another client
    sends through, whose engines keep their order that way, and on a
    one-credit server whose credit a second SET in flight finds taken
    (a queued claim waits for its FIFO grant)."""
    # Two clients on one node: every job sleeps to its send instant.
    shared = build_cluster(profiles.RDMA_MEM, spec=ClusterSpec(
        num_clients=2, client_nodes=1, server_mem=32 * MB))
    client, sim = shared.clients[0], shared.sim
    assert client._nic_shared
    sim.run(until=sim.spawn(_set(client)))  # the engine is up
    lines = _event_list(sim, lambda: _set(client)).splitlines()
    req_id = client._next_req_id - 1
    assert _engine_stages(lines) == [f"engine dispatch, set #{req_id}]",
                                     f"credit grant, set #{req_id}]"]

    # One credit, two SETs in flight: the second claim queues.
    alone = build_cluster(profiles.RDMA_MEM, spec=ClusterSpec(
        server_mem=32 * MB, recv_credits=1))
    client, sim = alone.clients[0], alone.sim
    assert not client._nic_shared
    sim.run(until=sim.spawn(_set(client)))

    def two_sets():
        yield sim.all_of([sim.spawn(_set(client)), sim.spawn(_set(client))])

    lines = _event_list(sim, two_sets).splitlines()
    first, second = client._next_req_id - 2, client._next_req_id - 1
    assert _engine_stages(lines) == [f"engine dispatch, set #{first}]",
                                     f"engine dispatch, set #{second}]",
                                     f"credit grant, set #{second}]"]


def test_the_event_list_names_each_worker_stage():
    """What a moved request budget prints for a server worker: the
    generator each timer wakes it in. A RAM-hit GET's worker sleeps its
    pickup (receive, parse and lookup) and its response prep, which also
    covers the LRU update. A SET sleeps nothing at the pickup: its
    handler's first timer covers receive, parse, copy and slab
    allocation for an inline value, and runs from the value's landing
    for an RDMA one; with early ack the handler sleeps its copy, then
    its slab allocation. A SET that holds no receive credit past its
    store sleeps the LRU update in the response's timer; without early
    ack the credit is released where the LRU update ends, so that update
    keeps its own timer."""
    def worker_stages(profile, op):
        cluster = _warm_cluster(profile, profiled=False)
        client, sim = cluster.clients[0], cluster.sim
        lines = _event_list(sim, lambda: op(client)).splitlines()
        return [line.rpartition(": ")[2] for line in lines
                if "[server0-worker" in line]

    worker, handle_set, respond = (f"server.MemcachedServer.{name}]" for name
                                   in ("_worker", "_handle_set", "_respond"))
    assert worker_stages(profiles.RDMA_MEM, _get) == [worker, respond]
    assert worker_stages(profiles.RDMA_MEM, _set) == [
        handle_set, handle_set, respond]
    assert worker_stages(profiles.IPOIB_MEM, _set) == [handle_set, respond]
    assert worker_stages(profiles.H_RDMA_OPT_NONB_I, _set) == [
        handle_set, handle_set, respond]


@pytest.mark.parametrize("profile,consensus", [(profiles.RDMA_MEM, False),
                                               (profiles.IPOIB_MEM, False),
                                               (profiles.RDMA_MEM, True)],
                         ids=["RDMA_MEM", "IPOIB_MEM", "raft-membership"])
def test_no_process_per_connection(spawned, profile, consensus):
    """A running 4x8 cluster (32 connections) keeps one process per
    server worker thread and one engine per client, plus any named
    daemon (expiry sweeper, writeback — neither is up on these
    in-memory profiles; one Raft ticker per node when Raft owns the
    membership): a connection is a receiver on its two endpoints, not a
    process. That holds on a stream transport too, whose client side
    pays a serial kernel receive per connection (a clock, not a
    process), and on the Raft mesh between the servers."""
    replication = ReplicationConfig(consensus=consensus)
    cluster = build_cluster(profile, spec=ClusterSpec(
        topology=TopologyConfig(initial_servers=4), num_clients=8,
        server_mem=32 * MB, replication=replication))
    sim = cluster.sim
    # Clients start their engine on first use: one operation each.
    sim.run(until=sim.all_of([sim.spawn(_set(c)) for c in cluster.clients]))
    live = collections.Counter(
        re.sub(r"\d+", "", p.name) for p in spawned if p.is_alive)
    workers = cluster.servers[0].config.worker_threads
    expected = {"server-worker.g": 4 * workers, "client-engine": 8}
    if consensus:
        expected["raft-tick-"] = 4
    assert live == expected


@pytest.mark.parametrize("case",
                         ["get-hit/RDMA_MEM", "get-hit/FATCACHE",
                          "iget+wait/H_RDMA_OPT_NONB_I",
                          "bget/H_RDMA_OPT_NONB_B"],
                         ids=["get/RDMA_MEM", "get/FATCACHE", "iget+wait", "bget"])
def test_no_event_on_the_get_path_is_popped_without_an_observer(
        monkeypatch, case):
    profile, op = OPS[case]
    cluster = _warm_cluster(profile, profiled=False)
    client, sim = cluster.clients[0], cluster.sim
    popped = []
    process = Event._process

    def spy(event):
        popped.append((type(event).__name__, len(event.callbacks)))
        process(event)

    monkeypatch.setattr(Event, "_process", spy)

    def app():
        for _ in range(5):
            yield from op(client)

    done = sim.spawn(app())
    done.callbacks.append(lambda _ev: None)  # observe it, as run(until=) does
    while not done.processed:
        sim.step()  # step() dispatches through Event._process
    # Every event of the five operations was seen: at least the budget.
    assert len(popped) >= 5 * PINS[case]["events"]
    assert [p for p in popped if p[1] == 0] == []

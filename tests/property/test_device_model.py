"""The block device against an independent model of its two stages.

A device I/O takes one of ``parallelism`` slots (FIFO), holds it for
the access latency, then moves its aligned bytes through the one shared
pipe a quantum at a time, each chunk queueing FIFO for the pipe; it
completes when its last chunk leaves the pipe and frees its slot. The
latency is read when the slot is granted, the bandwidth, alignment and
quantum when the latency ends — so a ``params`` swap mid-run (what an
``ssd_slowdown`` fault does) changes only what is read after it.

The reference below is that sentence as a plain event loop over
``(instant, order)`` with no simulator in it. Random read/write mixes
are issued at a few shared instants (so latencies tie and chunks
queue), with picosecond latencies and odd bandwidths so every instant
is an arbitrary float: each completion instant, the device's busy time
and its ``in_service`` / ``queue_length`` gauges must match the model
exactly, sampled between events and at every completion.
"""

import dataclasses
import heapq
import itertools
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Timeout
from repro.storage.device import BlockDevice
from repro.storage.params import DeviceParams
from repro.units import KB

# Instants on an odd nanosecond grid; latencies are picosecond counts:
# the sums they make are arbitrary floats that meet only where the
# model makes them meet (a shared issue instant, a shared latency).
instant = st.integers(1, 3_000_000).map(lambda n: n * 1.0000000123e-9)
#: Swap and sample instants: half a step off the issue grid, so neither
#: ever meets an issue at one instant (whose order would be a tie).
between = st.integers(1, 3_000_000).map(lambda n: (n + 0.5) * 1.0000000123e-9)
latency = st.integers(100_000, 900_000_000).map(lambda ps: ps * 1e-12)
bandwidth = st.integers(50, 5_000).map(lambda mb: mb * 1.0000037e6)


@st.composite
def device_params(draw, parallelism=None):
    return DeviceParams(
        name="model",
        read_latency=draw(latency), write_latency=draw(latency),
        read_bandwidth=draw(bandwidth), write_bandwidth=draw(bandwidth),
        parallelism=(parallelism if parallelism is not None
                     else draw(st.integers(1, 4))),
        sector=draw(st.sampled_from([512, 4 * KB])),
        pipe_quantum=draw(st.sampled_from([4 * KB, 16 * KB, 64 * KB])))


@st.composite
def scenarios(draw):
    params = draw(device_params())
    starts = draw(st.lists(instant, min_size=1, max_size=5, unique=True))
    ios = draw(st.lists(st.tuples(st.sampled_from(starts),
                                   st.integers(1, 200 * KB), st.booleans()),
                        min_size=1, max_size=20))
    ios.sort(key=lambda io: io[0])  # stable: one instant keeps draw order
    swap = draw(st.none() | st.tuples(
        between, device_params(parallelism=params.parallelism)))
    samples = draw(st.lists(between, max_size=8, unique=True))
    return params, ios, swap, samples


def reference(params, ios, swap):
    """Completion instant of every I/O, the device's busy time, the
    gauges ``(in_service, queue_length)`` right after each completion,
    and every gauge change as ``(instant, in_service, queue_length)``."""
    def at(t):
        return swap[1] if swap is not None and t > swap[0] else params

    order = itertools.count()
    heap = [(t, next(order), "issue", i) for i, (t, _n, _w) in enumerate(ios)]
    heapq.heapify(heap)
    slots, slot_queue = 0, deque()
    pipe_busy, pipe_queue = False, deque()
    io = [dict(nbytes=n, write=w) for _t, n, w in ios]
    done, after, changes = [None] * len(ios), [None] * len(ios), []
    busy = 0.0

    def grant_slot(i, t):
        p = at(t)
        io[i]["latency"] = p.write_latency if io[i]["write"] else p.read_latency
        heapq.heappush(heap, (t + io[i]["latency"], next(order), "latency", i))

    def start_chunk(i, t):
        io[i]["chunk"] = min(io[i]["remaining"], io[i]["quantum"])
        heapq.heappush(heap, (t + io[i]["chunk"] / io[i]["bandwidth"],
                              next(order), "chunk", i))

    def claim_pipe(i, t):
        nonlocal pipe_busy
        if pipe_busy:
            pipe_queue.append(i)
        else:
            pipe_busy = True
            start_chunk(i, t)

    def finish(i, t):
        nonlocal slots, busy
        busy += io[i]["latency"] + io[i]["xfer"]
        if slot_queue:
            grant_slot(slot_queue.popleft(), t)
        else:
            slots -= 1
        done[i] = t
        after[i] = (slots, len(slot_queue))

    while heap:
        t, _, kind, i = heapq.heappop(heap)
        if kind == "issue":
            if slots < params.parallelism:
                slots += 1
                grant_slot(i, t)
            else:
                slot_queue.append(i)
        elif kind == "latency":
            p = at(t)
            bw = p.write_bandwidth if io[i]["write"] else p.read_bandwidth
            remaining = p.aligned(io[i]["nbytes"])
            io[i].update(bandwidth=bw, remaining=remaining,
                         xfer=remaining / bw,
                         quantum=max(p.pipe_quantum, p.sector))
            claim_pipe(i, t)
        else:  # a chunk left the pipe
            if pipe_queue:
                start_chunk(pipe_queue.popleft(), t)
            else:
                pipe_busy = False
            io[i]["remaining"] -= io[i]["chunk"]
            if io[i]["remaining"] > 0:
                claim_pipe(i, t)
            else:
                finish(i, t)
        changes.append((t, slots, len(slot_queue)))
    return done, busy, after, changes


def simulate(params, ios, swap, samples):
    sim = Simulator()
    dev = BlockDevice(sim, params)
    done, after, sampled = [None] * len(ios), [None] * len(ios), []

    def issue(i, t, nbytes, write):
        yield Timeout.at(sim, t)
        yield dev.write(nbytes) if write else dev.read(nbytes)
        done[i] = sim.now
        after[i] = (dev.in_service, dev.queue_length)

    def swapper(t, new):
        yield Timeout.at(sim, t)
        dev.params = new

    def sampler():
        for t in sorted(samples):
            yield Timeout.at(sim, t)
            sampled.append((t, dev.in_service, dev.queue_length))

    for i, (t, nbytes, write) in enumerate(ios):
        sim.spawn(issue(i, t, nbytes, write))
    if swap is not None:
        sim.spawn(swapper(*swap))
    sim.spawn(sampler())
    sim.run()
    return done, dev.stats, after, sampled


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_every_completion_is_the_two_stage_model(scenario):
    params, ios, swap, samples = scenario
    done, stats, after, sampled = simulate(params, ios, swap, samples)
    want_done, want_busy, want_after, changes = reference(params, ios, swap)
    assert done == want_done
    assert after == want_after
    assert stats.busy_time == want_busy
    writes = [n for _t, n, w in ios if w]
    assert (stats.writes, stats.bytes_written) == (len(writes), sum(writes))
    assert stats.reads + stats.writes == len(ios)
    for t, in_service, queue_length in sampled:
        before = [c for c in changes if c[0] < t]
        assert (in_service, queue_length) == (before[-1][1:] if before
                                              else (0, 0))


def test_a_swap_mid_run_reaches_only_what_is_read_after_it():
    """Deterministic companion: the swap lands during the first read's
    latency, so that read keeps its latency but moves at the new
    bandwidth; a read issued after the swap pays the new latency."""
    old = DeviceParams(name="old", read_latency=10e-6, write_latency=10e-6,
                       read_bandwidth=1e9, write_bandwidth=1e9)
    new = dataclasses.replace(old, read_latency=30e-6, read_bandwidth=0.5e9)
    ios = [(1e-6, 4 * KB, False), (20e-6, 4 * KB, False)]
    swap = (5e-6, new)
    done, *_ = simulate(old, ios, swap, [])
    assert done == reference(old, ios, swap)[0]
    assert done[0] == (1e-6 + 10e-6) + 4 * KB / 0.5e9
    assert done[1] == (20e-6 + 30e-6) + 4 * KB / 0.5e9

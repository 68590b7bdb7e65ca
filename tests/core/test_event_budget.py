"""Event budgets: what one operation costs the engine, exactly.

``Simulator.events_processed`` counts events popped, so on a 1x1
cluster in steady state every operation of a kind costs the same whole
number of events. That number is machine-independent, and committed
here: a change that adds an event to a request path fails this file and
has to say why (ROADMAP item 1d). Profiling is pure observation, so each
budget must hold with the request profiler off **and** on.

The budgets are low because every queued event has an observer
(docs/performance.md, "Event budget"): message milestones, ``buffer_safe``
and per-put store events exist only where something waits on them —
which is why ``bget`` costs two events more than ``iget`` + ``wait``.
"""

import pytest

from repro import build_cluster, profiles
from repro.core.cluster import ClusterSpec
from repro.sim.events import Event
from repro.units import KB, MB

KEY = b"key"


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


#: (id, design profile, one operation, events per operation)
BUDGETS = [
    ("get-hit/RDMA_MEM", profiles.RDMA_MEM, _get, 18),
    ("set/RDMA_MEM", profiles.RDMA_MEM, _set, 25),
    ("iget+wait/H_RDMA_OPT_NONB_I", profiles.H_RDMA_OPT_NONB_I, _iget_wait, 18),
    ("iset+wait/H_RDMA_OPT_NONB_I", profiles.H_RDMA_OPT_NONB_I, _iset_wait, 29),
    # The b-variants observe the buffer-reuse point: bget waits on
    # buffer_safe, armed on the request's on_wire (+2 events); bset's
    # buffer_safe is raised by the server's BufferAck (+1).
    ("bget/H_RDMA_OPT_NONB_B", profiles.H_RDMA_OPT_NONB_B, _bget, 20),
    ("bset/H_RDMA_OPT_NONB_B", profiles.H_RDMA_OPT_NONB_B, _bset, 30),
    ("get-hit/FATCACHE", profiles.FATCACHE, _get, 19),
    ("set/FATCACHE", profiles.FATCACHE, _set, 20),
]


def _warm_cluster(profile, profiled):
    """A 1x1 cluster with the key stored and every lazy process started."""
    cluster = build_cluster(profile, spec=ClusterSpec(
        server_mem=32 * MB, ssd_limit=64 * MB, profile=profiled))
    client, sim = cluster.clients[0], cluster.sim

    def warm():
        yield from client.set(KEY, 4 * KB)
        yield from client.get(KEY)

    sim.run(until=sim.spawn(warm()))
    return cluster


def _events_for(cluster, op, n):
    client, sim = cluster.clients[0], cluster.sim

    def app():
        for _ in range(n):
            yield from op(client)

    before = sim.events_processed
    sim.run(until=sim.spawn(app()))
    return sim.events_processed - before


@pytest.mark.parametrize("profiled", [False, True], ids=["profile-off", "profile-on"])
@pytest.mark.parametrize("profile,op,budget",
                         [b[1:] for b in BUDGETS], ids=[b[0] for b in BUDGETS])
def test_events_per_op_is_exactly_the_budget(profile, op, budget, profiled):
    cluster = _warm_cluster(profile, profiled)
    ten = _events_for(cluster, op, 10)
    twenty = _events_for(cluster, op, 20)
    # The driver process costs two events per run (its Initialize and
    # its observed end); everything else is the operations'.
    assert (ten - 2, twenty - 2) == (10 * budget, 20 * budget)
    if profiled:
        assert cluster.obs.profiler.report().finished >= 30


@pytest.mark.parametrize("profile,op",
                         [(profiles.RDMA_MEM, _get), (profiles.FATCACHE, _get),
                          (profiles.H_RDMA_OPT_NONB_I, _iget_wait),
                          (profiles.H_RDMA_OPT_NONB_B, _bget)],
                         ids=["get/RDMA_MEM", "get/FATCACHE", "iget+wait", "bget"])
def test_no_event_on_the_get_path_is_popped_without_an_observer(
        monkeypatch, profile, op):
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
    assert len(popped) > 5 * 10
    assert [p for p in popped if p[1] == 0] == []

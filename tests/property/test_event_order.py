"""The engine's ordering contract, checked from the outside.

Randomized process/store/timeout programs run to completion, and every
timeout and manual event they post is watched against a reference
model: the clock never goes back, each event runs at the instant it was
due, and events due at one instant run in the order they were posted
(``(time, post-order)``, whether an event waited in the heap or was
posted into the same-time lane). A folded timer — two back-to-back
sleeps as one ``Timeout.at(..., posted=)``, posted where the second
sleep would have started — runs among the events due at its instant as
if it had been posted there: the order is ``(time, posted, post-order)``,
with ``posted`` the clock at the post for every other event, so those
keep ``(time, post-order)`` exactly. The fault-injected crash scenario's
Chrome trace is compared with a pinned digest.
"""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Mailbox, Simulator, Store, Timeout
from tests.golden import load

# Delays chosen to exercise both queues: zero (lane), sub-microsecond
# (heap), and values that collide at one timestamp across processes.
DELAYS = [0.0, 1e-6, 1.5e-6, 2e-6, 1e-3]

action = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(range(len(DELAYS)))),
    st.tuples(st.just("fold"), st.sampled_from(range(len(DELAYS))),
              st.sampled_from(range(len(DELAYS)))),
    st.tuples(st.just("put"), st.sampled_from([0, 1]), st.integers(0, 99)),
    st.tuples(st.just("get"), st.sampled_from([0, 1])),
    st.tuples(st.just("mput"), st.integers(0, 99)),
    st.tuples(st.just("mget")),
    st.tuples(st.just("event")),
    st.tuples(st.just("spawn"), st.lists(
        st.sampled_from(range(len(DELAYS))), min_size=1, max_size=3)),
    st.tuples(st.just("allof"), st.sampled_from([0, 1, 2])),
    st.tuples(st.just("anyof"), st.sampled_from([0, 1, 2])),
)

programs = st.lists(
    st.lists(action, min_size=1, max_size=8), min_size=1, max_size=5)


def _execute(program):
    """Run ``program``; return its trace, the watched events as
    ``(due, posted, post index, folded, ran at)`` in the order they
    ran, and how many were posted."""
    sim = Simulator()
    stores = [Store(sim, capacity=2), Store(sim)]
    mailbox = Mailbox(sim)
    trace, ran, posted = [], [], []

    def watch(ev, due, folded_at=None):
        post = len(posted)
        posted.append(post)
        key = (due, sim.now if folded_at is None else folded_at, post,
               folded_at is not None)
        ev.callbacks.append(lambda _ev: ran.append(key + (sim.now,)))
        return ev

    def timeout(d):
        return watch(sim.timeout(DELAYS[d]), sim.now + DELAYS[d])

    def folded(a, b):
        # Sleep DELAYS[a] then DELAYS[b], as one timer.
        second = sim.now + DELAYS[a]
        due = second + DELAYS[b]
        return watch(Timeout.at(sim, due, posted=second), due, second)

    def child(pid, delays):
        for i, d in enumerate(delays):
            yield timeout(d)
            trace.append((sim.now, pid, "child", i))

    def proc(pid, actions):
        for i, act in enumerate(actions):
            kind = act[0]
            if kind == "timeout":
                yield timeout(act[1])
                trace.append((sim.now, pid, "timeout", i))
            elif kind == "fold":
                yield folded(act[1], act[2])
                trace.append((sim.now, pid, "fold", i))
            elif kind == "put":
                yield stores[act[1]].put(act[2])
                trace.append((sim.now, pid, "put", act[2]))
            elif kind == "get":
                value = yield stores[act[1]].get()
                trace.append((sim.now, pid, "get", value))
            elif kind == "mput":
                mailbox.put(act[1])
                trace.append((sim.now, pid, "mput", act[1]))
            elif kind == "mget":
                value = yield mailbox.get()
                trace.append((sim.now, pid, "mget", value))
            elif kind == "event":
                ev = watch(sim.event(), sim.now)
                ev.succeed((pid, i))
                value = yield ev
                trace.append((sim.now, pid, "event", value))
            elif kind == "spawn":
                p = sim.spawn(child(pid, act[1]), name=f"child-{pid}-{i}")
                trace.append((sim.now, pid, "spawned", i))
                yield p
                trace.append((sim.now, pid, "joined", i))
            elif kind in ("allof", "anyof"):
                events = [timeout(j) for j in range(act[1] + 1)]
                cond = AllOf(sim, events) if kind == "allof" \
                    else AnyOf(sim, events)
                values = yield cond
                trace.append((sim.now, pid, kind, len(values)))

    for pid, actions in enumerate(program):
        sim.spawn(proc(pid, actions), name=f"proc-{pid}")
    sim.run()
    return trace, ran, len(posted)


@given(programs)
@settings(max_examples=60, deadline=None)
def test_events_run_in_time_then_post_order(program):
    run = _execute(program)
    trace, ran, posted = run
    times = [t for t, *_ in trace]
    assert times == sorted(times), "the clock went back"
    assert all(due == ran_at for due, *_, ran_at in ran), "ran off its instant"
    # Every posted event ran once, in (due time, posted, post order) ...
    order = [(due, when_posted, post) for due, when_posted, post, *_ in ran]
    assert sorted(post for *_, post in order) == list(range(posted))
    assert order == sorted(order)
    # ... so the events posted without ``posted=`` keep (time, post order).
    plain = [(due, post) for due, _, post, folded, _ in ran if not folded]
    assert plain == sorted(plain)
    assert _execute(program) == run


def test_crash_scenario_chrome_trace_matches_pin():
    """The crash-1-of-4 fault scenario's Chrome trace hashes to its
    pinned digest."""
    from repro.core.cluster import ClusterSpec, ReplicationConfig
    from repro.core.profiles import H_RDMA_OPT_NONB_I
    from repro.core.topology import TopologyConfig
    from repro.faults import FaultPlan
    from repro.harness.runner import RunConfig
    from repro.obs.export import chrome_trace_events
    from repro.units import KB, MB, MS
    from repro.workloads.generator import WorkloadSpec

    spec = WorkloadSpec(num_ops=120, num_keys=256, value_length=8 * KB,
                        read_fraction=0.5, seed=9)
    cluster_spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=4),
        num_clients=1, server_mem=16 * MB,
        ssd_limit=64 * MB,
        replication=ReplicationConfig(router="ketama"),
        request_timeout=2 * MS, trace=True)
    cfg = RunConfig(
        profile=H_RDMA_OPT_NONB_I, workload=spec, cluster=cluster_spec,
        fault_plan=FaultPlan.parse(["crash:server=1,at=200us"]))
    cluster = cfg.build()
    cfg.run(cluster)
    trace = json.dumps(chrome_trace_events(cluster.obs.tracer),
                       sort_keys=True)
    pin = load("traces")["digests"]["crash-1-of-4/chrome-trace"]
    assert hashlib.sha256(trace.encode()).hexdigest() == pin

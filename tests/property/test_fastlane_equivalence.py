"""Fast lane vs. legacy heap: the two scheduling paths must be
indistinguishable.

The same-time fast lane (see ``repro.sim.engine``) reorders nothing by
construction; these properties check that claim from the outside by
running randomized process/store/timeout programs — and the PR 2 crash
scenario — under both paths and requiring identical traces.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Mailbox, Simulator, Store

# Delays chosen to exercise both queues: zero (lane), sub-microsecond
# (heap), and values that collide at one timestamp across processes.
DELAYS = [0.0, 1e-6, 1.5e-6, 2e-6, 1e-3]

action = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(range(len(DELAYS)))),
    st.tuples(st.just("put"), st.sampled_from([0, 1]), st.integers(0, 99)),
    st.tuples(st.just("get"), st.sampled_from([0, 1])),
    st.tuples(st.just("mput"), st.integers(0, 99)),
    st.tuples(st.just("mget")),
    st.tuples(st.just("event")),
    st.tuples(st.just("spawn"), st.lists(
        st.sampled_from(range(len(DELAYS))), min_size=1, max_size=3)),
    st.tuples(st.just("allof"), st.sampled_from([0, 1, 2])),
    st.tuples(st.just("anyof"), st.sampled_from([0, 1, 2])),
    st.tuples(st.just("interrupt"), st.sampled_from(range(len(DELAYS)))),
)

programs = st.lists(
    st.lists(action, min_size=1, max_size=8), min_size=1, max_size=5)


def _execute(program, fast_lane):
    sim = Simulator(fast_lane=fast_lane)
    stores = [Store(sim, capacity=2), Store(sim)]
    mailbox = Mailbox(sim)
    trace = []

    def child(pid, delays):
        for i, d in enumerate(delays):
            yield sim.timeout(DELAYS[d])
            trace.append((sim.now, pid, "child", i))

    def sleeper(pid):
        try:
            yield sim.timeout(10.0)
            trace.append((sim.now, pid, "sleeper-done", None))
        except Exception as exc:
            trace.append((sim.now, pid, "interrupted", type(exc).__name__))

    def proc(pid, actions):
        for i, act in enumerate(actions):
            kind = act[0]
            if kind == "timeout":
                yield sim.timeout(DELAYS[act[1]])
                trace.append((sim.now, pid, "timeout", i))
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
                ev = sim.event()
                ev.succeed((pid, i))
                value = yield ev
                trace.append((sim.now, pid, "event", value))
            elif kind == "spawn":
                p = sim.spawn(child(pid, act[1]), name=f"child-{pid}-{i}")
                trace.append((sim.now, pid, "spawned", i))
                yield p
                trace.append((sim.now, pid, "joined", i))
            elif kind in ("allof", "anyof"):
                events = [sim.timeout(DELAYS[j]) for j in range(act[1] + 1)]
                cond = AllOf(sim, events) if kind == "allof" \
                    else AnyOf(sim, events)
                values = yield cond
                trace.append((sim.now, pid, kind, len(values)))
            elif kind == "interrupt":
                victim = sim.spawn(sleeper(pid), name=f"sleeper-{pid}-{i}")
                yield sim.timeout(DELAYS[act[1]])
                if victim.is_alive:
                    victim.interrupt((pid, i))
                trace.append((sim.now, pid, "interrupt", i))

    for pid, actions in enumerate(program):
        sim.spawn(proc(pid, actions), name=f"proc-{pid}")
    sim.run()
    return trace, sim.now, sim.events_processed


@given(programs)
@settings(max_examples=60, deadline=None)
def test_random_programs_trace_identically(program):
    fast = _execute(program, fast_lane=True)
    legacy = _execute(program, fast_lane=False)
    assert fast == legacy


def test_fast_lane_flag_is_respected():
    assert Simulator(fast_lane=True).fast_lane
    assert not Simulator(fast_lane=False).fast_lane


def test_crash_scenario_chrome_trace_is_byte_identical_across_paths():
    """The PR 2 crash-1-of-4 fault scenario replays byte-identically
    whether events flow through the fast lane or the legacy heap."""
    from repro.core.cluster import ClusterSpec, ReplicationConfig
    from repro.core.profiles import H_RDMA_OPT_NONB_I
    from repro.core.topology import TopologyConfig
    from repro.faults import FaultPlan
    from repro.harness.runner import RunConfig
    from repro.obs.export import chrome_trace_events
    from repro.units import KB, MB, MS
    from repro.workloads.generator import WorkloadSpec

    def traced(fast_lane):
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
            sim=Simulator(fast_lane=fast_lane),
            fault_plan=FaultPlan.parse(["crash:server=1,at=200us"]))
        cluster = cfg.build()
        cfg.run(cluster)
        return json.dumps(chrome_trace_events(cluster.obs.tracer),
                          sort_keys=True)

    assert traced(True) == traced(False)

"""Unit tests for the causal profiler: attribution, trees, sketches."""

import json

import pytest

from repro.net.fabric import Fabric
from repro.net.params import FDR_RDMA, LinkParams
from repro.obs.profile import (
    NULL_PROFILER,
    ProfileReport,
    RequestProfiler,
    STAGES,
    StageSketch,
    attribute,
    build_tree,
    canonical_stage,
    folded_stacks,
    profile_message,
)
from repro.sim import Simulator


# -- canonical stage mapping -------------------------------------------------


def test_canonical_stage_maps_dotted_and_unknown_names():
    assert canonical_stage("ssd") == "ssd"
    assert canonical_stage("ssd.io") == "ssd"
    assert canonical_stage("nic") == "nic"
    assert canonical_stage("replica.nic") is None
    assert canonical_stage("replica.server_queue") is None
    assert canonical_stage("banana") == "other"


# -- flat attribution --------------------------------------------------------


def test_attribute_is_exact_partition():
    spans = [("nic", 0.0, 1.0), ("wire", 1.0, 3.0), ("server_queue", 3.0, 4.0)]
    out = attribute(spans, 0.0, 5.0)
    assert out == {"nic": 1.0, "wire": 2.0, "server_queue": 1.0, "other": 1.0}
    assert sum(out.values()) == pytest.approx(5.0)


def test_attribute_overlap_resolved_by_priority():
    # SSD I/O inside a broader server_cpu span: the more specific stage
    # wins the overlap, the enclosing span keeps the rest.
    spans = [("server_cpu", 0.0, 10.0), ("ssd.io", 2.0, 6.0)]
    out = attribute(spans, 0.0, 10.0)
    assert out["ssd"] == pytest.approx(4.0)
    assert out["server_cpu"] == pytest.approx(6.0)
    assert sum(out.values()) == pytest.approx(10.0)


def test_attribute_clips_to_window_and_excludes_replica():
    spans = [("nic", -1.0, 2.0), ("replica.wire", 2.0, 3.0)]
    out = attribute(spans, 0.0, 4.0)
    assert out["nic"] == pytest.approx(2.0)
    # replica.* excluded from flat attribution -> residual time
    assert out["other"] == pytest.approx(2.0)


def test_attribute_empty_window():
    assert attribute([("nic", 0.0, 1.0)], 1.0, 1.0) == {}


# -- span tree and folded stacks ---------------------------------------------


def test_build_tree_nests_by_containment():
    spans = [
        ("server_queue", 1.0, 2.0),
        ("server_cpu", 2.0, 8.0),
        ("ssd.io", 3.0, 7.0),
    ]
    tree = build_tree(spans, 0.0, 10.0)
    assert tree.name == "request" and tree.duration == pytest.approx(10.0)
    names = [c.name for c in tree.children]
    assert names == ["server_queue", "server_cpu"]
    cpu = tree.children[1]
    assert [c.name for c in cpu.children] == ["ssd.io"]
    assert cpu.self_time() == pytest.approx(2.0)
    assert tree.self_time() == pytest.approx(3.0)


def test_folded_stacks_self_times_sum_to_window():
    spans = [("server_cpu", 2.0, 8.0), ("ssd.io", 3.0, 7.0)]
    stacks = folded_stacks(build_tree(spans, 0.0, 10.0))
    assert stacks["request"] == pytest.approx(4.0)
    assert stacks["request;server_cpu"] == pytest.approx(2.0)
    assert stacks["request;server_cpu;ssd.io"] == pytest.approx(4.0)
    assert sum(stacks.values()) == pytest.approx(10.0)


# -- sketch ------------------------------------------------------------------


def test_stage_sketch_percentiles_and_breakdowns():
    sk = StageSketch()
    for _ in range(95):
        sk.add(100e-6, {"nic": 60e-6, "wire": 40e-6})
    for _ in range(5):
        sk.add(10e-3, {"ssd": 9e-3, "nic": 1e-3})
    assert sk.count == 100
    # p50 bucket bounds the common latency; p99 the tail one.
    assert 90e-6 <= sk.percentile(0.50) < 200e-6
    assert sk.percentile(0.99) >= 10e-3
    mean = sk.mean_breakdown()
    assert mean["ssd"] == pytest.approx(5 * 9e-3 / 100)
    p99 = sk.breakdown_at(0.99)
    assert p99["ssd"] == pytest.approx(9e-3)
    p50 = sk.breakdown_at(0.50)
    assert "ssd" not in p50 and p50["nic"] == pytest.approx(60e-6)
    d = sk.to_dict()
    assert d["count"] == 100
    json.dumps(d)


def test_stage_sketch_empty():
    sk = StageSketch()
    assert sk.percentile(0.5) == 0.0
    assert sk.breakdown_at(0.99) == {}
    assert sk.mean_breakdown() == {}


# -- profiler lifecycle ------------------------------------------------------


class _Result:
    def __init__(self, t_complete=0.0, hit=True):
        self.t_complete = t_complete
        self.hit = hit


def make_profiler(**kw):
    t = {"now": 0.0}
    prof = RequestProfiler(clock=lambda: t["now"], **kw)
    return prof, t


def test_profiler_sampling_every_nth():
    prof, _ = make_profiler(sample_every=3)
    tids = [prof.maybe_start("get") for _ in range(9)]
    assert sum(1 for t in tids if t is not None) == 3
    assert tids[0] is not None and tids[1] is None and tids[3] is not None


def test_profiler_finish_classifies_and_aggregates():
    prof, t = make_profiler(keep_traces=True)
    tid = prof.maybe_start("get")
    prof.record(tid, "nic", 0.0, 10e-6)
    prof.record(tid, "ssd.io", 20e-6, 80e-6)
    t["now"] = 100e-6
    prof.finish(tid, _Result(t_complete=100e-6, hit=True))
    rep = prof.report()
    assert list(rep.classes) == ["get:ssd"]
    sk = rep.classes["get:ssd"]
    assert sk.count == 1
    bd = sk.mean_breakdown()
    assert bd["ssd"] == pytest.approx(60e-6)
    assert sum(bd.values()) == pytest.approx(100e-6)
    assert prof.live == 0
    assert len(prof.traces) == 1
    # RAM-served hit and a miss classify differently.
    tid = prof.maybe_start("get")
    t["now"] = 150e-6
    prof.finish(tid, _Result(t_complete=150e-6, hit=True))
    tid = prof.maybe_start("get")
    t["now"] = 200e-6
    prof.finish(tid, _Result(t_complete=200e-6, hit=False))
    assert set(rep.classes) == {"get:ssd", "get:ram", "get:miss"}


def test_profiler_open_close_is_lifo():
    prof, t = make_profiler()
    tid = prof.maybe_start("get")
    prof.open_stage(tid, "server_queue")  # stale (timed-out attempt)
    t["now"] = 10e-6
    prof.open_stage(tid, "server_queue")  # fresh retry
    t["now"] = 15e-6
    prof.close_stage(tid, "server_queue")
    tr = prof._live[tid]
    assert tr.spans == [("server_queue", 10e-6, 15e-6)]
    assert tr.open == [("server_queue", 0.0)]


def test_profiler_discard_and_unknown_ids_are_safe():
    prof, _ = make_profiler()
    tid = prof.maybe_start("set")
    prof.discard(tid)
    assert prof.live == 0
    # Records/finishes against dead or never-issued ids are no-ops.
    prof.record(tid, "nic", 0.0, 1.0)
    prof.close_stage(999, "server_queue")
    prof.finish(999, _Result())
    assert prof.report().finished == 0


def test_profiler_reset_clears_warmup():
    prof, t = make_profiler()
    tid = prof.maybe_start("get")
    t["now"] = 1e-3
    prof.finish(tid, _Result(t_complete=1e-3))
    prof.reset()
    rep = prof.report()
    assert rep.started == 0 and rep.finished == 0 and not rep.classes


def test_null_profiler_is_inert():
    assert not NULL_PROFILER.enabled
    assert NULL_PROFILER.maybe_start("get") is None
    NULL_PROFILER.record(1, "nic", 0.0, 1.0)
    NULL_PROFILER.finish(1, _Result())
    assert NULL_PROFILER.live == 0
    assert isinstance(NULL_PROFILER.report(), ProfileReport)


# -- message profiling -------------------------------------------------------


def _send(nbytes=4096, params=FDR_RDMA):
    """One real message, just handed to an idle NIC at t=0."""
    sim = Simulator()
    fabric = Fabric(sim)
    msg = fabric.node("a").nic(params).transmit(
        fabric.node("b").nic(params), nbytes)
    return sim, msg


def test_profile_message_records_nic_and_wire():
    prof, t = make_profiler()
    tid = prof.maybe_start("get")
    sim, msg = _send()
    profile_message(prof, tid, msg)
    # Both spans are written at submit, from the message's own numbers.
    assert prof._live[tid].spans == [("nic", 0.0, msg.wire_at),
                                     ("wire", msg.wire_at, msg.delivered_at)]
    assert 0.0 < msg.wire_at < msg.delivered_at
    # Observation touched no event: the delivery is all the run pops.
    assert msg._on_wire is None and msg._delivered is None
    sim.run()
    assert sim.events_processed == 1


def test_profile_message_prefix_and_processed_events():
    prof, t = make_profiler()
    tid = prof.maybe_start("get")
    # A free link (no busy time, no latency): both spans are
    # zero-length, which the recorder drops.
    free = LinkParams(name="free", latency=0.0, bandwidth=float("inf"),
                      cpu_send=0.0, cpu_recv=0.0)
    sim, msg = _send(params=free)
    profile_message(prof, tid, msg, prefix="replica.")
    assert (msg.wire_at, msg.delivered_at) == (0.0, 0.0)
    assert prof._live[tid].spans == []


def test_profile_message_several_traces_hook_one_message():
    # A batched mget: every sampled entry observes the one wire message.
    prof, t = make_profiler()
    a, b = prof.maybe_start("get"), prof.maybe_start("get")
    sim, msg = _send()
    profile_message(prof, a, msg)
    profile_message(prof, b, msg, prefix="replica.")
    w, d = msg.wire_at, msg.delivered_at
    assert prof._live[a].spans == [("nic", 0.0, w), ("wire", w, d)]
    assert prof._live[b].spans == [("replica.nic", 0.0, w),
                                   ("replica.wire", w, d)]


def test_message_still_in_flight_at_finish_does_not_stretch_the_window():
    # The client gives up at 10 us with a late response on the wire:
    # its spans were written at submit and end after the give-up.
    prof, t = make_profiler(keep_traces=True)
    tid = prof.maybe_start("get")
    prof.record(tid, "nic", 8e-6, 9e-6)
    prof.record(tid, "wire", 9e-6, 12e-6)
    t["now"] = 10e-6
    prof.finish(tid, _Result(t_complete=10e-6))
    (_tid, _cls, t_issue, t_done, _spans, t_response), = prof.traces
    assert (t_issue, t_done, t_response) == (0.0, 10e-6, None)
    sketch = prof.report().classes["get:ram"]
    assert sketch.mean_breakdown()["wire"] == pytest.approx(1e-6)


def test_response_mark_is_kept_and_attributes_nothing():
    """A stream socket's kernel receive follows the ``wire`` span; the
    instant the client took the response is kept with the trace, and
    the gap stays ``other``."""
    prof, t = make_profiler(keep_traces=True)
    tid = prof.maybe_start("get")
    prof.record(tid, "wire", 2e-6, 6e-6)
    t["now"] = 9e-6
    prof.mark_response(tid)
    prof.finish(tid, _Result(t_complete=9e-6))
    (*_head, spans, t_response), = prof.traces
    assert spans == (("wire", 2e-6, 6e-6),)
    assert t_response == 9e-6
    breakdown = prof.report().classes["get:ram"].mean_breakdown()
    assert breakdown["other"] == pytest.approx(5e-6)


def test_profiled_and_unprofiled_bursts_pop_the_same_events():
    def burst(profiled):
        sim = Simulator()
        fabric = Fabric(sim)
        a, b = (fabric.node(n).nic(FDR_RDMA) for n in "ab")
        prof = RequestProfiler(clock=lambda: sim.now)
        popped = []
        b.deliver = lambda msg: popped.append((sim.now, msg.nbytes))

        def app():
            for nbytes in (64, 32768, 4096, 4096):
                msg = a.transmit(b, nbytes)
                if profiled:
                    profile_message(prof, prof.maybe_start("set"), msg)
                yield sim.timeout(1e-6)

        sim.spawn(app())
        sim.run()
        return popped, sim.events_processed, sim.now

    assert burst(profiled=True) == burst(profiled=False)


def test_report_table_and_folded_lines_render():
    prof, t = make_profiler()
    tid = prof.maybe_start("get")
    prof.record(tid, "nic", 0.0, 10e-6)
    t["now"] = 40e-6
    prof.finish(tid, _Result(t_complete=40e-6))
    rep = prof.report()
    assert "get:ram" in rep.table()
    assert "stage breakdown (mean):" in rep.breakdown_table()
    assert "stage breakdown (p99):" in rep.breakdown_table(q=0.99)
    lines = rep.folded_lines()
    assert any(line.startswith("get:ram;request") for line in lines)
    assert all(s in STAGES for s in ("nic", "ssd", "other"))

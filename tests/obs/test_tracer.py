"""Tests for the sim-time span tracer."""

from repro.obs.tracer import NULL_SPAN, NULL_TRACER, SpanTracer
from repro.sim import Simulator


def make_tracer():
    t = {"now": 0.0}
    tracer = SpanTracer(clock=lambda: t["now"])
    return t, tracer


def test_sync_span_records_complete_event():
    t, tracer = make_tracer()
    span = tracer.begin("work", tid="w0", pid="srv", cat="req", req_id=7)
    t["now"] = 0.5
    span.end()
    assert len(tracer) == 1
    ev = tracer.events[0]
    assert ev["ph"] == "X"
    assert ev["ts"] == 0.0
    assert ev["dur"] == 0.5
    assert ev["name"] == "work" and ev["tid"] == "w0" and ev["pid"] == "srv"
    assert ev["args"] == {"req_id": 7}


def test_span_end_is_idempotent_and_merges_extra_args():
    t, tracer = make_tracer()
    span = tracer.begin("io", bytes=4096)
    t["now"] = 1.0
    span.end(status="ok")
    span.end(status="twice")  # ignored
    assert len(tracer) == 1
    assert tracer.events[0]["args"] == {"bytes": 4096, "status": "ok"}


def test_async_span_emits_begin_end_pair_with_matching_id():
    t, tracer = make_tracer()
    a = tracer.begin("op1", async_=True)
    b = tracer.begin("op2", async_=True)
    t["now"] = 2.0
    b.end()
    a.end()
    phases = [(e["ph"], e["name"]) for e in tracer.events]
    assert phases == [("b", "op2"), ("e", "op2"), ("b", "op1"), ("e", "op1")]
    ids = {e["name"]: e["id"] for e in tracer.events if e["ph"] == "b"}
    assert ids["op1"] != ids["op2"]
    for ev in tracer.events:
        assert ev["id"] == ids[ev["name"]]


def test_context_manager_closes_span():
    t, tracer = make_tracer()
    with tracer.span("region"):
        t["now"] = 0.25
    assert tracer.events[0]["dur"] == 0.25


def test_clear():
    _, tracer = make_tracer()
    tracer.begin("a").end()
    tracer.clear()
    assert len(tracer) == 0


def test_null_tracer_records_nothing():
    span = NULL_TRACER.begin("x", async_=True, anything=1)
    assert span is NULL_SPAN
    span.end(more=2)
    NULL_TRACER.complete("y", 0.0, 1.0)
    assert len(NULL_TRACER) == 0
    assert NULL_TRACER.events == []
    assert NULL_TRACER.enabled is False


def test_simulator_process_spans_when_tracer_installed():
    sim = Simulator()
    tracer = SpanTracer(clock=lambda: sim.now)
    sim.tracer = tracer

    def proc():
        yield sim.timeout(0.001)

    sim.spawn(proc(), name="p0")
    sim.run()
    names = [e["name"] for e in tracer.events]
    assert names.count("p0") == 2  # async begin + end
    begin = next(e for e in tracer.events if e["ph"] == "b")
    end = next(e for e in tracer.events if e["ph"] == "e")
    assert begin["ts"] == 0.0
    assert end["ts"] == 0.001


def test_simulator_default_tracer_is_null():
    sim = Simulator()
    assert sim.tracer is NULL_TRACER

    def proc():
        yield sim.timeout(0.001)

    sim.spawn(proc())
    sim.run()
    assert len(sim.tracer) == 0

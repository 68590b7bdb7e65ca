"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import Simulator, SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_environment_does_not_change_the_engine(monkeypatch):
    """No ambient switch: the retired scheduler and GC variables are
    ignored, and ``run()`` pauses the collector regardless."""
    import gc

    monkeypatch.setenv("REPRO_SIM_LEGACY_HEAP", "1")
    monkeypatch.setenv("REPRO_SIM_GC", "1")
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(1.0)
        seen.append(gc.isenabled())

    sim.spawn(proc(sim))
    assert gc.isenabled()
    sim.run()
    assert seen == [False]
    assert gc.isenabled()


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(1.5)
        log.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert log == [1.5]


def test_timeout_value_passthrough():
    sim = Simulator()
    out = []

    def proc(sim):
        v = yield sim.timeout(0.1, value="payload")
        out.append(v)

    sim.spawn(proc(sim))
    sim.run()
    assert out == ["payload"]


def test_zero_delay_timeout_runs_at_current_time():
    sim = Simulator()
    times = []

    def proc(sim):
        yield sim.timeout(0)
        times.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert times == [0.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_events_process_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.spawn(proc(sim, 3, "c"))
    sim.spawn(proc(sim, 1, "a"))
    sim.spawn(proc(sim, 2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_fifo_tiebreak_at_same_time():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == list("abcde")


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(1.0)

    sim.spawn(proc(sim))
    sim.run(until=3.5)
    assert sim.now == 3.5


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return 42

    p = sim.spawn(proc(sim))
    assert sim.run(until=p) == 42
    assert sim.now == 2.0


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    ev = sim.event()  # never triggered
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=ev)


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim):
        got.append((yield ev))

    def firer(sim):
        yield sim.timeout(1.0)
        ev.succeed("done")

    sim.spawn(waiter(sim))
    sim.spawn(firer(sim))
    sim.run()
    assert got == ["done"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_throws_into_waiter():
    sim = Simulator()
    seen = []

    def waiter(sim, ev):
        try:
            yield ev
        except ValueError as e:
            seen.append(str(e))

    ev = sim.event()
    sim.spawn(waiter(sim, ev))
    ev.fail(ValueError("boom"))
    sim.run()
    assert seen == ["boom"]


def test_unhandled_failure_surfaces_from_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        sim.run()


def test_process_exception_propagates_to_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise KeyError("dead process")

    sim.spawn(bad(sim))
    with pytest.raises(KeyError):
        sim.run()


def test_process_exception_catchable_by_parent():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("child died")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except ValueError as e:
            caught.append(str(e))

    sim.spawn(parent(sim))
    sim.run()
    assert caught == ["child died"]


def test_yield_on_already_processed_event_resumes_immediately():
    sim = Simulator()
    out = []

    def proc(sim, ev):
        yield sim.timeout(2.0)
        v = yield ev  # triggered at t=0, long processed
        out.append((sim.now, v))

    ev = sim.event()
    ev.succeed("early")
    sim.spawn(proc(sim, ev))
    sim.run()
    assert out == [(2.0, "early")]


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def proc(sim):
        yield 12345  # type: ignore[misc]

    sim.spawn(proc(sim))
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_cross_simulator_event_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    foreign = sim_b.event()
    foreign.succeed()
    sim_b.run()

    def proc(sim):
        yield foreign

    sim_a.spawn(proc(sim_a))
    with pytest.raises(SimulationError):
        sim_a.run()


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        return "result"

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.ok and p.value == "result"


def test_process_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5)

    p = sim.spawn(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_step_on_empty_schedule_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_nested_spawn_from_process():
    sim = Simulator()
    order = []

    def inner(sim):
        yield sim.timeout(1)
        order.append("inner")

    def outer(sim):
        yield sim.spawn(inner(sim))
        order.append("outer")

    sim.spawn(outer(sim))
    sim.run()
    assert order == ["inner", "outer"]


def test_many_processes_scale():
    sim = Simulator()
    done = []

    def proc(sim, i):
        yield sim.timeout(i * 0.001)
        done.append(i)

    for i in range(1000):
        sim.spawn(proc(sim, i))
    sim.run()
    assert len(done) == 1000
    assert done == sorted(done)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_yield_from_subroutine_composition():
    sim = Simulator()
    out = []

    def sub(sim):
        yield sim.timeout(1.0)
        return "sub-done"

    def main(sim):
        v = yield from sub(sim)
        out.append((sim.now, v))

    sim.spawn(main(sim))
    sim.run()
    assert out == [(1.0, "sub-done")]


def test_simulation_is_deterministic():
    def build_and_run():
        sim = Simulator()
        trace = []

        def proc(sim, tag, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                trace.append((sim.now, tag))

        sim.spawn(proc(sim, "x", 0.3))
        sim.spawn(proc(sim, "y", 0.2))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


def test_unhandled_event_failure_inside_event_error_identity():
    sim = Simulator()
    sentinel = ZeroDivisionError("specific instance")
    ev = sim.event()
    ev.fail(sentinel)
    with pytest.raises(ZeroDivisionError) as exc_info:
        sim.run()
    assert exc_info.value is sentinel


def test_event_repr_is_stable():
    sim = Simulator()
    ev = sim.event()
    assert "pending" in repr(ev)
    ev.succeed()
    # Changed on purpose: an event triggered with no waiter is never
    # queued — popping it would run no code — so it reads "processed"
    # at once instead of "triggered" until the next run().
    assert "processed" in repr(ev)
    waited = sim.event()
    waited.callbacks.append(lambda _ev: None)
    waited.succeed()
    assert "triggered" in repr(waited)
    sim.run()
    assert "processed" in repr(waited)

"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import Simulator


def test_initial_state():
    sim = Simulator(seed=0)
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_processed == 0


def test_events_fire_in_time_order():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "latest")
    sim.run()
    assert fired == ["early", "late", "latest"]
    assert sim.now == 3.0


def test_simultaneous_events_fifo():
    sim = Simulator(seed=0)
    fired = []
    for i in range(10):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator(seed=0)
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    sim.schedule_at(5.0, fired.append, "x")
    sim.run()
    assert sim.now == 5.0 and fired == ["x"]


def test_schedule_at_rejects_the_past():
    sim = Simulator(seed=0)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_schedule_at_is_exact_at_large_absolute_times():
    # The old relative round-trip (when - now + now) lost ulps once the
    # clock was large; absolute scheduling must hit `when` exactly.
    sim = Simulator(seed=0)
    base = 1e9
    sim.schedule_at(base + 0.3, lambda: None)
    sim.run()
    when = base + 0.7
    fired_at = []
    sim.schedule_at(when, lambda: fired_at.append(sim.now))
    sim.run()
    assert fired_at == [when]


def test_schedule_at_now_is_allowed():
    sim = Simulator(seed=0)
    sim.schedule(2.0, lambda: None)
    sim.run()
    fired = []
    sim.schedule_at(2.0, fired.append, "x")
    sim.run()
    assert fired == ["x"] and sim.now == 2.0


def test_cancelled_event_does_not_fire():
    sim = Simulator(seed=0)
    fired = []
    ev = sim.schedule(1.0, fired.append, "no")
    sim.schedule(2.0, fired.append, "yes")
    ev.cancel()
    sim.run()
    assert fired == ["yes"]


def test_run_until_stops_and_advances_clock():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_is_repeatable_like_a_clock():
    sim = Simulator(seed=0)
    sim.run(until=1.0)
    sim.run(until=2.0)
    assert sim.now == 2.0


def test_run_exclusive_parks_events_at_the_bound():
    # The exclusive form of a bound t is the largest float below it.
    sim = Simulator(seed=0)
    fired = []
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(2.0, fired.append, "b")
    sim.run(until=math.nextafter(2.0, -math.inf))
    assert fired == ["a"]  # the event AT the bound stays queued
    assert sim.now < 2.0
    assert sim.next_event_time == 2.0
    # Scheduling at the bound afterwards is legal and FIFO order among
    # the t=2.0 events is preserved.
    sim.schedule_at(2.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_run_inclusive_default_executes_the_bound():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule_at(2.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["b"]


def test_next_event_time_tracks_queue():
    sim = Simulator(seed=0)
    assert sim.next_event_time is None
    ev = sim.schedule_at(3.0, lambda: None)
    sim.schedule_at(5.0, lambda: None)
    assert sim.next_event_time == 3.0
    ev.cancel()
    assert sim.next_event_time == 5.0
    sim.run()
    assert sim.next_event_time is None


def test_max_events_safety_valve():
    sim = Simulator(seed=0)

    def reschedule():
        sim.schedule(0.1, reschedule)

    sim.schedule(0.0, reschedule)
    sim.run(max_events=50)
    assert sim.events_processed == 50
    assert sim.pending > 0


def test_max_events_stop_keeps_the_clock_before_queued_events():
    # A run stopped by its event budget must not jump the clock to
    # ``until``: the events still queued would then lie in the past.
    sim = Simulator(seed=0)
    fired = []
    for t in range(1, 10):
        sim.schedule_at(float(t), fired.append, t)
    sim.run(until=20.0, max_events=3)
    assert fired == [1, 2, 3]
    assert sim.now == 3.0
    assert sim.pending == 6
    # Budget spent with nothing left at or before ``until``: the clock
    # does move on to it.
    sim.schedule_at(25.0, fired.append, 25)
    sim.run(until=20.0, max_events=6)
    assert fired == list(range(1, 10))
    assert sim.now == 20.0
    sim.run()
    assert fired[-1] == 25 and sim.now == 25.0


def test_max_events_does_not_count_cancelled_events():
    sim = Simulator(seed=0)
    fired = []
    cancelled = [sim.schedule(0.1 * i, fired.append, f"c{i}") for i in range(5)]
    for ev in cancelled:
        ev.cancel()
    for i in range(3):
        sim.schedule(1.0 + i, fired.append, i)
    # Budget of 3 must execute all 3 live events: the 5 cancelled ones
    # sit ahead of them in the heap but cost nothing.
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.events_processed == 3


def test_events_processed_total_shim_is_gone():
    # The deprecated process-global tally was removed after one release
    # of warnings; per-world counters (World.events_processed and
    # record_world_events) are the only accounting surface.
    import repro.sim
    import repro.sim.engine

    assert not hasattr(repro.sim.engine, "events_processed_total")
    assert not hasattr(repro.sim, "events_processed_total")
    assert "events_processed_total" not in repro.sim.__all__


def test_events_scheduled_during_run_execute():
    sim = Simulator(seed=0)
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_step_returns_false_on_empty_queue():
    sim = Simulator(seed=0)
    assert sim.step() is False


def test_clear_drops_pending_events():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule(1.0, fired.append, "x")
    sim.clear()
    sim.run()
    assert fired == []


def test_rng_determinism():
    a = Simulator(seed=42).rng.random(5)
    b = Simulator(seed=42).rng.random(5)
    assert (a == b).all()


def test_run_not_reentrant():
    sim = Simulator(seed=0)
    err = []

    def reenter():
        try:
            sim.run()
        except SimulationError as e:
            err.append(e)

    sim.schedule(0.0, reenter)
    sim.run()
    assert len(err) == 1


def test_pickle_roundtrip_preserves_pending_events():
    import pickle

    sim = Simulator(seed=7)
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run(until=1.0)
    clone = pickle.loads(pickle.dumps(sim))
    assert clone.now == sim.now
    assert clone.pending == sim.pending
    assert clone.events_processed == sim.events_processed
    # The clone's per-node substreams replay identically.
    assert clone.node_rng(3).random() == sim.node_rng(3).random()

"""Tests for the discrete-event simulation engine."""

import pytest

from repro.clocks.units import (
    as_microseconds,
    as_milliseconds,
    microseconds,
    milliseconds,
)
from repro.errors import SimulationError
from repro.sim.engine import PeriodicTask, Simulator


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_runs_callback_at_requested_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]

    def test_call_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for name in ("first", "second", "third"):
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_call_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("no"))
        event.cancel()
        sim.run()
        assert fired == []
        assert sim.events_processed == 0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_executes_event_exactly_at_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [2]

    def test_run_until_advances_clock_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(index + 1.0, lambda i=index: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_step_executes_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestDeterminism:
    def test_derived_rng_is_deterministic(self):
        a = Simulator(seed=7).derived_rng("workload").random()
        b = Simulator(seed=7).derived_rng("workload").random()
        assert a == b

    def test_derived_rng_differs_by_name(self):
        sim = Simulator(seed=7)
        assert sim.derived_rng("a").random() != sim.derived_rng("b").random()

    def test_seed_is_exposed(self):
        assert Simulator(seed=13).seed == 13


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        PeriodicTask(sim, 1.0, lambda: fired.append(sim.now))
        sim.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_start_delay(self):
        sim = Simulator()
        fired = []
        PeriodicTask(sim, 1.0, lambda: fired.append(sim.now), start_delay=0.25)
        sim.run(until=2.5)
        assert fired == [0.25, 1.25, 2.25]

    def test_cancel_stops_future_firings(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, 1.0, lambda: fired.append(sim.now))
        sim.schedule(1.5, task.cancel)
        sim.run(until=5.0)
        assert fired == [1.0]
        assert task.cancelled

    def test_invalid_period_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Simulator(), 0.0, lambda: None)


class TestUnitConversions:
    def test_microseconds_round_trip(self):
        assert as_microseconds(microseconds(250.0)) == pytest.approx(250.0)

    def test_milliseconds_round_trip(self):
        assert as_milliseconds(milliseconds(3.5)) == pytest.approx(3.5)

    def test_milliseconds_magnitude(self):
        assert milliseconds(1.0) == pytest.approx(1e-3)

    def test_microseconds_magnitude(self):
        assert microseconds(1.0) == pytest.approx(1e-6)

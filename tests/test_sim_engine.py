"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings, strategies as st

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
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.events_processed == 0

    def test_cancel_twice_and_after_firing_is_a_no_op(self):
        sim = Simulator()
        fired = []
        kept = sim.schedule(1.0, lambda: fired.append("kept"))
        dropped = sim.schedule(2.0, lambda: fired.append("dropped"))
        sim.cancel(dropped)
        sim.cancel(dropped)
        assert sim.pending_events == 2  # a cancelled event waits to be popped
        sim.run()
        sim.cancel(kept)
        sim.schedule(1.0, lambda: fired.append("later"))
        sim.run()
        assert fired == ["kept", "later"]
        assert sim.events_processed == 2 and sim.pending_events == 0

    def test_now_and_events_processed_are_exact_after_a_callback_raised(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: 1 / 0)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(ZeroDivisionError):
            sim.run(until=5.0)
        assert (sim.now, sim.events_processed, sim.pending_events) == (2.0, 1, 1)
        sim.run(until=5.0)
        assert (sim.now, sim.events_processed) == (5.0, 2)


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

    @pytest.mark.parametrize("bound", [0, 1, 4, 10, 11])
    def test_max_events_means_exactly_that_many(self, bound):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(index + 1.0, lambda i=index: fired.append(i))
        sim.run(max_events=bound)
        assert fired == list(range(min(bound, 10)))
        assert sim.events_processed == len(fired)

    def test_negative_max_events_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().run(max_events=-1)

    @pytest.mark.parametrize("resume_until", [None, 10.0])
    def test_stop_leaves_the_clock_at_the_stopping_event(self, resume_until):
        """``run(until=T)`` ended by ``stop()`` has events before ``T`` left:
        advancing to ``T`` would run them in the past."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert sim.now == 1.0 and sim.pending_events == 1
        sim.call_at(1.5, lambda: fired.append(sim.now))
        sim.run(until=resume_until)
        assert fired == [1.5, 2.0]
        assert sim.now == (2.0 if resume_until is None else resume_until)

    def test_run_until_never_moves_the_clock_backwards(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.schedule(6.0, lambda: None)
        sim.run(until=5.0)
        sim.run(until=2.0)
        assert sim.now == 5.0 and sim.pending_events == 1

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

    def test_cancel_from_inside_its_own_callback(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 2:
                task.cancel()

        task = PeriodicTask(sim, 1.0, tick)
        sim.run(until=5.0)
        assert fired == [1.0, 2.0]
        assert task.cancelled and sim.pending_events == 0


# --------------------------------------------------------------------------
# The engine against a definition
# --------------------------------------------------------------------------
class ReferenceEngine:
    """What :class:`Simulator` must do, without a heap: a list kept sorted by
    ``(time, sequence)``.  A cancelled entry stays pending until it reaches
    the head and never counts as processed; ``run`` leaves the clock at
    ``until`` only when nothing earlier is left to run."""

    def __init__(self):
        self.now, self.events_processed = 0.0, 0
        self._entries, self._sequence, self._stopped = [], 0, False

    pending_events = property(lambda self: len(self._entries))

    def call_at(self, when, callback):
        entry = [when, self._sequence, callback]
        self._sequence += 1
        self._entries.append(entry)
        self._entries.sort(key=lambda each: (each[0], each[1]))
        return entry

    def schedule(self, delay, callback):
        return self.call_at(self.now + delay, callback)

    def cancel(self, entry):
        entry[2] = None

    def stop(self):
        self._stopped = True

    def _pop(self):
        """Pop the head and fire it unless it was cancelled."""
        when, _, callback = self._entries.pop(0)
        if callback is not None:
            self.now = when
            callback()
            self.events_processed += 1
        return callback is not None

    def step(self):
        while self._entries:
            if self._pop():
                return True
        return False

    def run(self, until=None, max_events=None):
        self._stopped = False
        target = None if max_events is None \
            else self.events_processed + max_events
        while self._entries and not self._stopped:
            if self.events_processed == target:
                return
            when, _, callback = self._entries[0]
            if callback is not None and until is not None and when > until:
                break
            self._pop()
        if until is not None and not self._stopped and self.now < until:
            self.now = until


_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
_BEHAVIOUR = st.recursive(
    st.lists(st.one_of(st.tuples(st.just("cancel"), st.integers(0, 50)),
                       st.tuples(st.just("stop"))), max_size=2),
    lambda inner: st.lists(
        st.one_of(st.tuples(st.sampled_from(["schedule", "call_at"]),
                            _DELAYS, inner),
                  st.tuples(st.just("cancel"), st.integers(0, 50)),
                  st.tuples(st.just("stop"))), max_size=3),
    max_leaves=8)
_PROGRAM = st.lists(
    st.one_of(st.tuples(st.sampled_from(["schedule", "call_at"]), _DELAYS,
                        _BEHAVIOUR),
              st.tuples(st.just("cancel"), st.integers(0, 50)),
              st.tuples(st.just("run"),
                        st.one_of(st.none(), _DELAYS, st.just(-0.5)),
                        st.one_of(st.none(), st.integers(0, 4))),
              st.tuples(st.just("step"))),
    max_size=30)


def _execute(engine, program):
    """Run ``program`` on ``engine``; everything observable, in order."""
    log, handles = [], []

    def perform(action):
        kind = action[0]
        if kind in ("schedule", "call_at"):
            ident = len(handles)

            def callback(ident=ident, behaviour=action[2]):
                log.append(("fired", ident, engine.now,
                            engine.events_processed))
                for nested in behaviour:
                    perform(nested)

            handles.append(engine.schedule(action[1], callback)
                           if kind == "schedule" else
                           engine.call_at(engine.now + action[1], callback))
        elif kind == "cancel" and handles:
            engine.cancel(handles[action[1] % len(handles)])
        elif kind == "stop":
            engine.stop()

    for action in program + [("run", None, None)]:
        if action[0] == "run":
            until = None if action[1] is None else engine.now + action[1]
            engine.run(until=until, max_events=action[2])
        elif action[0] == "step":
            log.append(engine.step())
        else:
            perform(action)
        log.append((action[0], engine.now, engine.events_processed,
                    engine.pending_events))
    return log


@settings(derandomize=True, deadline=None)
@given(_PROGRAM)
def test_simulator_matches_the_reference_engine(program):
    assert _execute(Simulator(), program) == \
        _execute(ReferenceEngine(), program)


class TestUnitConversions:
    def test_microseconds_round_trip(self):
        assert as_microseconds(microseconds(250.0)) == pytest.approx(250.0)

    def test_milliseconds_round_trip(self):
        assert as_milliseconds(milliseconds(3.5)) == pytest.approx(3.5)

    def test_milliseconds_magnitude(self):
        assert milliseconds(1.0) == pytest.approx(1e-3)

    def test_microseconds_magnitude(self):
        assert microseconds(1.0) == pytest.approx(1e-6)

"""Tests for Lamport, physical and hybrid logical clocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.hlc import HLCTimestamp, HybridLogicalClock
from repro.clocks.lamport import LamportClock
from repro.clocks.physical import PhysicalClock, SkewModel
from repro.clocks.timesource import FixedClock
from repro.errors import ClockError
from repro.sim.engine import Simulator


class TestLamportClock:
    def test_starts_at_initial_value(self):
        assert LamportClock(5).value == 5

    def test_negative_initial_rejected(self):
        with pytest.raises(ClockError):
            LamportClock(-1)

    def test_tick_increments(self):
        clock = LamportClock()
        assert clock.tick() == 1
        assert clock.tick() == 2

    def test_update_jumps_past_observed(self):
        clock = LamportClock()
        assert clock.update(10) == 11

    def test_update_with_smaller_value_still_ticks(self):
        clock = LamportClock(20)
        assert clock.update(3) == 21

    def test_update_rejects_negative(self):
        with pytest.raises(ClockError):
            LamportClock().update(-2)

    def test_advance_to_moves_forward_only(self):
        clock = LamportClock(10)
        assert clock.advance_to(50) == 50
        assert clock.advance_to(20) == 50

    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_values_never_decrease(self, observations):
        clock = LamportClock()
        previous = clock.value
        for observed in observations:
            current = clock.update(observed)
            assert current > previous
            previous = current


class TestPhysicalClock:
    def _clock(self, offset=0.0, at=0.0):
        sim = Simulator()
        sim.run(until=at)
        return sim, PhysicalClock(sim, offset_us=offset)

    def test_reads_simulated_time_in_microseconds(self):
        sim, clock = self._clock(at=0.001)
        assert clock.now_us() == 1000

    def test_offset_is_applied(self):
        _, clock = self._clock(offset=500.0, at=0.001)
        assert clock.now_us() == 1500

    def test_negative_offset_never_goes_below_zero(self):
        _, clock = self._clock(offset=-500.0, at=0.0)
        assert clock.now_us() == 0

    def test_monotonic_even_with_negative_offset(self):
        sim = Simulator()
        clock = PhysicalClock(sim, offset_us=0.0)
        first = clock.now_us()
        second = clock.now_us()
        assert second >= first

    def test_time_until_future_timestamp(self):
        _, clock = self._clock(at=0.001)
        assert clock.time_until_us(3000) == pytest.approx(0.002)

    def test_time_until_past_timestamp_is_zero(self):
        _, clock = self._clock(at=0.010)
        assert clock.time_until_us(10) == 0.0

    def test_skew_model_draws_within_bounds(self):
        model = SkewModel(max_offset_us=100.0)
        rng = Simulator(seed=5).derived_rng("skew")
        offsets = [model.draw_offset(rng) for _ in range(200)]
        assert all(-100.0 <= offset <= 100.0 for offset in offsets)
        assert any(offset != 0.0 for offset in offsets)

    def test_zero_skew_model(self):
        rng = Simulator().derived_rng("skew")
        assert SkewModel(max_offset_us=0.0).draw_offset(rng) == 0.0

    def test_negative_skew_bound_rejected(self):
        with pytest.raises(ClockError):
            SkewModel(max_offset_us=-1.0)


class _PreemptedTime:
    """Stand-in for the ``time`` module: a true clock that advances 1 us per
    read, seen through two origins, and a 5 ms preemption between the first
    and the second read after ``reads`` is zeroed."""

    def __init__(self) -> None:
        self.true = 100.0
        self.reads = 0

    def _tick(self) -> float:
        self.true += 1e-6
        self.reads += 1
        if self.reads == 2:
            self.true += 0.005  # descheduled inside the first bracket
        return self.true

    def monotonic(self) -> float:
        return self._tick() - 90.0

    def time(self) -> float:
        return self._tick() + 1_600_000_000.0


class TestWallClock:
    def test_epoch_alignment_survives_a_preemption_between_reads(
            self, monkeypatch):
        import repro.clocks.timesource as timesource
        fake = _PreemptedTime()
        monkeypatch.setattr(timesource, "time", fake)
        clock = timesource.WallClock()
        epoch = fake.time() - 2.0
        fake.reads = 0
        clock.sync_to_wall_epoch(epoch)
        expected = fake.true + 1_600_000_000.0 - epoch
        assert clock.now == pytest.approx(expected, abs=1e-4)


class TestHLCTimestamp:
    def test_pack_unpack_round_trip(self):
        ts = HLCTimestamp(physical=12345, logical=7)
        assert HLCTimestamp.unpack(ts.pack()) == ts

    def test_pack_preserves_order(self):
        earlier = HLCTimestamp(100, 5)
        later_physical = HLCTimestamp(101, 0)
        later_logical = HLCTimestamp(100, 6)
        assert earlier.pack() < later_physical.pack()
        assert earlier.pack() < later_logical.pack()

    def test_unpack_rejects_negative(self):
        with pytest.raises(ClockError):
            HLCTimestamp.unpack(-1)

    @given(st.integers(min_value=0, max_value=2**40),
           st.integers(min_value=0, max_value=2**15),
           st.integers(min_value=0, max_value=2**40),
           st.integers(min_value=0, max_value=2**15))
    @settings(max_examples=200, deadline=None)
    def test_packed_order_matches_tuple_order(self, p1, l1, p2, l2):
        a, b = HLCTimestamp(p1, l1), HLCTimestamp(p2, l2)
        assert (a.pack() < b.pack()) == ((p1, l1) < (p2, l2))


class TestHybridLogicalClock:
    def _clock(self, at=0.0, offset=0.0):
        sim = Simulator()
        sim.run(until=at)
        return sim, HybridLogicalClock(PhysicalClock(sim, offset_us=offset))

    def test_tick_tracks_physical_time(self):
        _, clock = self._clock(at=0.002)
        ts = HLCTimestamp.unpack(clock.tick())
        assert ts.physical == 2000
        assert ts.logical == 0

    def test_tick_uses_logical_component_when_time_stands_still(self):
        _, clock = self._clock(at=0.001)
        first = HLCTimestamp.unpack(clock.tick())
        second = HLCTimestamp.unpack(clock.tick())
        assert second.physical == first.physical
        assert second.logical == first.logical + 1

    def test_ticks_are_strictly_increasing(self):
        _, clock = self._clock(at=0.001)
        values = [clock.tick() for _ in range(20)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_update_adopts_remote_timestamp_ahead_of_local(self):
        _, clock = self._clock(at=0.001)
        remote = HLCTimestamp(5000, 3).pack()
        merged = HLCTimestamp.unpack(clock.update(remote))
        assert merged.physical == 5000
        assert merged.logical == 4

    def test_update_with_old_remote_keeps_local_physical(self):
        _, clock = self._clock(at=0.010)
        clock.tick()
        merged = HLCTimestamp.unpack(clock.update(HLCTimestamp(10, 0).pack()))
        assert merged.physical == 10_000

    def test_advance_to_moves_clock_forward(self):
        _, clock = self._clock(at=0.001)
        target = HLCTimestamp(9000, 2).pack()
        assert clock.advance_to(target) == target
        assert clock.tick() > target

    def test_advance_to_ignores_older_target(self):
        _, clock = self._clock(at=0.005)
        current = clock.tick()
        assert clock.advance_to(HLCTimestamp(1, 0).pack()) == current

    def test_now_does_not_record_event(self):
        _, clock = self._clock(at=0.003)
        before = clock.now()
        after = clock.now()
        assert before == after

    def test_now_reflects_physical_progress(self):
        sim, clock = self._clock(at=0.001)
        first = clock.now()
        sim.run(until=0.005)
        assert clock.now() > first

    @given(st.lists(st.integers(min_value=0, max_value=2**30), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_updates_are_monotonic(self, observations):
        _, clock = self._clock(at=0.001)
        previous = clock.tick()
        for observed in observations:
            current = clock.update(observed)
            assert current > previous or current >= observed
            previous = max(previous, current)

    @given(st.lists(st.tuples(
        st.sampled_from(["tick", "now", "update", "advance_to", "time"]),
        # Arguments around the clock's own range: physical parts of a few
        # microseconds, so equal and neighbouring components are common.
        st.builds(lambda physical, logical: HLCTimestamp(physical, logical).pack(),
                  st.integers(0, 6), st.integers(0, 3))), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_packed_state_equals_the_pairwise_definition(self, calls):
        """The clock keeps its state as one packed integer; every operation
        must return what the (physical, logical) definition of Kulkarni et
        al. gives, written out here on pairs."""
        time_source = FixedClock(0.0)
        clock = HybridLogicalClock(PhysicalClock(time_source))
        physical, logical = 0, 0  # the definition's state
        for name, argument in calls:
            now_us = int(time_source.now * 1_000_000)
            if name == "time":
                time_source.advance((argument >> 16) * 1e-6)
                continue
            if name == "now":
                expected = (now_us, 0) if now_us > physical \
                    else (physical, logical)
                assert clock.now() == HLCTimestamp(*expected).pack()
                continue
            if name == "tick":
                physical, logical = (now_us, 0) if now_us > physical \
                    else (physical, logical + 1)
                result = clock.tick()
            elif name == "update":
                seen = HLCTimestamp.unpack(argument)
                top = max(now_us, physical, seen.physical)
                if top == now_us and now_us > physical and now_us > seen.physical:
                    logical = 0
                elif top == physical == seen.physical:
                    logical = max(logical, seen.logical) + 1
                elif top == physical:
                    logical += 1
                else:
                    logical = seen.logical + 1
                physical = top
                result = clock.update(argument)
            else:
                if argument > HLCTimestamp(physical, logical).pack():
                    seen = HLCTimestamp.unpack(argument)
                    physical, logical = seen.physical, seen.logical
                result = clock.advance_to(argument)
            assert result == clock.value == HLCTimestamp(physical, logical).pack()
            assert clock.latest == HLCTimestamp(physical, logical)

    def test_update_rejects_a_negative_timestamp(self):
        _, clock = self._clock()
        with pytest.raises(ClockError):
            clock.update(-1)

"""Physical clocks with bounded skew.

Each server owns a physical clock that reads the simulated wall-clock time
plus a fixed per-server offset, modelling NTP-synchronised machines whose
clocks agree only within a bound (the paper uses NTP and reports that Cure's
ROT latency is dominated by clock skew).  Physical clocks can only move
forward with the passage of time: a server cannot "jump" its physical clock to
a snapshot timestamp, which is exactly why physical-clock protocols such as
Cure, GentleRain and POCC block ROTs (Section 3).

Timestamps are expressed in integer microseconds so they can be mixed with
logical counters in hybrid clocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ClockError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clocks.timesource import TimeSource


#: Conversion between seconds and clock microseconds.
_US_PER_SECOND = 1_000_000


@dataclass(frozen=True)
class SkewModel:
    """Describes how server clock offsets are drawn.

    Attributes
    ----------
    max_offset_us:
        Offsets are drawn uniformly in ``[-max_offset_us, +max_offset_us]``.
        The default (1000 us = 1 ms) corresponds to well-behaved NTP over a
        LAN and reproduces Cure's ~1 ms ROT latency penalty at low load.
    """

    max_offset_us: float = 1000.0

    def __post_init__(self) -> None:
        if self.max_offset_us < 0:
            raise ClockError("max_offset_us must be non-negative")

    def draw_offset(self, rng: random.Random) -> float:
        """Draw a per-server offset (microseconds)."""
        if self.max_offset_us == 0:
            return 0.0
        return rng.uniform(-self.max_offset_us, self.max_offset_us)


class PhysicalClock:
    """A per-server physical clock: a time source plus a fixed offset.

    The time source is anything with a ``now`` attribute returning seconds —
    the discrete-event simulator on the simulated backend, a
    :class:`~repro.clocks.timesource.WallClock` on the real-time backend.
    ``now_us()`` returns the current reading in integer microseconds.  The
    reading is guaranteed to be monotonically non-decreasing even if the
    offset would make consecutive readings equal.
    """

    def __init__(self, time_source: "TimeSource",
                 offset_us: float = 0.0) -> None:
        self._time_source = time_source
        self._offset_us = offset_us
        self._last_reading = 0

    @property
    def offset_us(self) -> float:
        """The configured offset of this clock, in microseconds."""
        return self._offset_us

    def now_us(self) -> int:
        """Current reading in integer microseconds (monotonic)."""
        reading = self._time_source.now * _US_PER_SECOND + self._offset_us
        value = max(int(reading), 0)
        if value < self._last_reading:
            value = self._last_reading
        self._last_reading = value
        return value

    def time_until_us(self, target_us: int) -> float:
        """Simulated seconds until this clock reaches ``target_us``.

        Returns 0.0 if the clock already reads at or past the target.  This is
        the blocking time a physical-clock protocol must wait before serving a
        snapshot with timestamp ``target_us``.
        """
        current = self.now_us()
        if current >= target_us:
            return 0.0
        remaining_us = target_us - current
        return remaining_us / _US_PER_SECOND

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PhysicalClock(offset_us={self._offset_us:+.1f})"


__all__ = ["PhysicalClock", "SkewModel"]

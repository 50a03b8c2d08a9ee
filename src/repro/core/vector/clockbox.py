"""Clock abstraction for the vector protocol family.

The clock is the *only* mechanical difference between Contrarian and Cure
(besides the number of ROT rounds), so it is isolated behind one small
interface:

* ``read()`` — current clock value, used by coordinators to propose snapshot
  timestamps and by the stabilization protocol's heartbeat.
* ``timestamp_after(floor)`` — produce an event timestamp strictly greater
  than ``floor`` (the maximum entry of the client's dependency vector); the
  returned ``wait`` is how long the server must block first, which is zero
  for logical and hybrid clocks and up to the clock skew for physical clocks.
* ``catch_up(target)`` — how long the server must wait before it can serve a
  read at snapshot timestamp ``target``; again zero unless the clock is
  physical (this is precisely the blocking the paper attributes to Cure).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.clocks.hlc import HybridLogicalClock
from repro.clocks.lamport import LamportClock
from repro.clocks.physical import PhysicalClock
from repro.core.common.records import record
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clocks.timesource import TimeSource


@record
class TimestampDecision:
    """Result of asking the clock for an event timestamp."""

    timestamp: int
    wait_seconds: float


class ClockBox:
    """A server clock in one of three modes: ``hlc``, ``logical``, ``physical``.

    The clock reads time through a pluggable *time source* (anything with a
    ``now`` attribute in seconds): the simulator on the simulated backend, a
    :class:`~repro.clocks.timesource.WallClock` on the real-time backend.
    """

    def __init__(self, mode: str, time_source: "TimeSource",
                 offset_us: float) -> None:
        if mode not in ("hlc", "logical", "physical"):
            raise ConfigurationError(f"unknown clock mode {mode!r}")
        self.mode = mode
        self._physical = PhysicalClock(time_source, offset_us=offset_us)
        self._hlc = HybridLogicalClock(self._physical)
        self._lamport = LamportClock()

    # ------------------------------------------------------------------ reads
    def read(self) -> int:
        """Current clock value without recording an event."""
        if self.mode == "hlc":
            return self._hlc.now()
        if self.mode == "logical":
            return self._lamport.value
        return self._physical.now_us()

    # ----------------------------------------------------------------- events
    def timestamp_after(self, floor: int) -> TimestampDecision:
        """Produce an event timestamp strictly greater than ``floor``."""
        if self.mode == "hlc":
            self._hlc.advance_to(floor)
            return TimestampDecision(self._hlc.tick(), 0.0)
        if self.mode == "logical":
            self._lamport.advance_to(floor)
            return TimestampDecision(self._lamport.tick(), 0.0)
        wait = self._physical.time_until_us(floor + 1)
        timestamp = max(self._physical.now_us(), floor + 1)
        return TimestampDecision(timestamp, wait)

    def observe(self, remote_timestamp: int) -> None:
        """Merge a timestamp observed in a message (keeps clocks close)."""
        if self.mode == "hlc":
            self._hlc.update(remote_timestamp)
        elif self.mode == "logical":
            self._lamport.update(remote_timestamp)
        # Physical clocks cannot be adjusted by messages.

    # ------------------------------------------------------------------ reads
    def catch_up(self, target: int) -> float:
        """Seconds to wait before the clock reaches ``target`` (0 if movable)."""
        if self.mode == "hlc":
            self._hlc.advance_to(target)
            return 0.0
        if self.mode == "logical":
            self._lamport.advance_to(target)
            return 0.0
        return self._physical.time_until_us(target)


__all__ = ["ClockBox", "TimestampDecision"]

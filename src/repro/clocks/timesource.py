"""Pluggable time sources.

Every clock in :mod:`repro.clocks` reads time through a *time source* — any
object exposing a ``now`` attribute/property that returns seconds as a float.
Two implementations exist:

* the discrete-event :class:`repro.sim.engine.Simulator` (its ``now``
  attribute is simulated seconds) — used by the simulated backend; and
* :class:`WallClock` below — monotonic wall-clock seconds since construction,
  used by the real-time asyncio backend.

Keeping the contract structural (no base-class import) is what lets the
protocol kernels and the clock stack import cleanly without touching
``repro.sim``.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class TimeSource(Protocol):
    """Anything with a ``now`` attribute returning seconds as a float."""

    @property
    def now(self) -> float:  # pragma: no cover - protocol definition
        ...


#: Monotonic/wall read brackets :meth:`WallClock.sync_to_wall_epoch` takes.
_SYNC_BRACKETS = 5


class WallClock:
    """Monotonic wall-clock time source (seconds since construction).

    Starting at zero keeps wall-clock runs aligned with the simulated-time
    convention (warmup windows, metric timestamps and HLC physical components
    all measure from the start of the run).
    """

    def __init__(self) -> None:
        self._origin = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._origin

    def reset(self) -> None:
        """Re-zero the clock (e.g. when a cluster actually starts serving).

        Setup work between construction and serving (keyspace preload, task
        spawning) must not consume the warmup window, so builders re-zero
        the epoch at start time.  Only safe before timestamps derived from
        this clock have been handed out.
        """
        self._origin = time.monotonic()

    def sync_to_wall_epoch(self, epoch: float) -> None:
        """Align ``now == 0`` with the ``time.time()`` instant ``epoch``.

        Multi-process clusters distribute one epoch so that every worker's
        wall clock measures from the *same* origin: per-process
        ``time.monotonic()`` origins are arbitrary, but ``time.time()`` is
        the shared system clock, so mapping through it bounds cross-process
        skew to system-clock read jitter (microseconds on one host) instead
        of process start-up stagger (hundreds of milliseconds).  Same safety
        caveat as :meth:`reset`.

        The ``time.time()`` read is bracketed by two monotonic reads and
        placed at the bracket's midpoint; the tightest of
        :data:`_SYNC_BRACKETS` brackets wins.  A process descheduled between
        a single pair of reads would otherwise run its whole clock ahead by
        the preemption.
        """
        tightest = float("inf")
        for _ in range(_SYNC_BRACKETS):
            before = time.monotonic()
            wall = time.time()
            after = time.monotonic()
            if after - before < tightest:
                tightest = after - before
                self._origin = (before + after) / 2 - (wall - epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"WallClock(now={self.now:.6f})"


class FixedClock:
    """A manually advanced time source (unit tests of kernels and clocks)."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds


__all__ = ["FixedClock", "TimeSource", "WallClock"]

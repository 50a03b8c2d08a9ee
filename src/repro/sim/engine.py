"""Discrete-event simulation engine.

The engine keeps a priority queue of events ordered by simulated time.  All
other components (network, nodes, protocol timers) schedule callbacks through
:meth:`Simulator.schedule` / :meth:`Simulator.call_at`.  Simulated time is a
float measured in **seconds**; component code typically works in milliseconds
or microseconds and converts through the helpers in :mod:`repro.clocks.units`.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Optional

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    The engine orders events by ``(time, sequence)`` so that simultaneous
    events fire in the order they were scheduled, which keeps runs
    deterministic.  The ordering key is kept outside the event (the heap
    stores ``(time, sequence, event)`` tuples) and the event itself is a
    ``__slots__`` class: event creation and the attribute loads in the heap
    loop are the hottest allocations of the whole simulator, and slotted
    instances are measurably cheaper than dataclass instances here.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "label")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[[], None], label: str = "") -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = " cancelled" if self.cancelled else ""
        return (f"Event(time={self.time:.9f}, seq={self.sequence}, "
                f"label={self.label!r}{state})")


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  Every source of
        randomness in the library draws from generators derived from this seed
        so that a run is fully reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0
        self.random = random.Random(seed)
        self._seed = seed
        self._stopped = False

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def seed(self) -> int:
        """Seed the simulator was created with."""
        return self._seed

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    def derived_rng(self, name: str) -> random.Random:
        """Return a new RNG deterministically derived from the seed and a name.

        Components (workload generator, network jitter, clock skew, ...) use
        separate derived generators so that adding randomness in one component
        does not perturb the draws of another.
        """
        return random.Random(f"{self._seed}:{name}")

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[[], None],
                 label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past: delay={delay}")
        return self.call_at(self._now + delay, callback, label=label)

    def call_at(self, when: float, callback: Callable[[], None],
                label: str = "") -> Event:
        """Schedule ``callback`` to run at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule an event at {when:.9f} before now={self._now:.9f}")
        sequence = next(self._sequence)
        event = Event(when, sequence, callback, label)
        heapq.heappush(self._queue, (when, sequence, event))
        return event

    # -------------------------------------------------------------- execution
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue was
        empty or only contained cancelled events.
        """
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this value.  Events scheduled
            exactly at ``until`` are executed.
        max_events:
            Safety valve: stop after executing this many events.
        """
        executed = 0
        self._stopped = False
        # The heap pop/dispatch below is the single hottest loop in the whole
        # library; bind everything it touches to locals.
        queue = self._queue
        heappop = heapq.heappop
        while queue and not self._stopped:
            event = queue[0][2]
            if event.cancelled:
                heappop(queue)
                continue
            if until is not None and event.time > until:
                self._now = until
                return
            heappop(queue)
            self._now = event.time
            event.callback()
            self._processed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                return
        if until is not None and self._now < until:
            self._now = until

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Simulator(now={self._now:.6f}, pending={len(self._queue)}, "
                f"processed={self._processed})")


class PeriodicTask:
    """Helper that reschedules a callback at a fixed period.

    Used for the stabilization protocol, heartbeats and metric sampling.  The
    task stops either when :meth:`cancel` is called or when ``stop_after``
    simulated seconds have elapsed.
    """

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], None], *,
                 start_delay: Optional[float] = None,
                 label: str = "periodic") -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._label = label
        self._cancelled = False
        self._event: Optional[Event] = None
        delay = period if start_delay is None else start_delay
        self._event = sim.schedule(delay, self._fire, label=label)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop rescheduling and cancel the pending occurrence."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._callback()
        if not self._cancelled:
            self._event = self._sim.schedule(self._period, self._fire,
                                             label=self._label)


__all__ = ["Event", "PeriodicTask", "Simulator"]

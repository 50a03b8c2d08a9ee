"""Discrete-event simulation engine.

The engine keeps a priority queue of events ordered by simulated time.  All
other components (network, nodes, protocol timers) schedule callbacks through
:meth:`Simulator.schedule` / :meth:`Simulator.call_at`.  Simulated time is a
float measured in **seconds**; component code typically works in milliseconds
or microseconds and converts through the helpers in :mod:`repro.clocks.units`.

Every simulated message is two events, so what an event costs is what a
figure waits for.  An event is therefore one small list, the heap entry
itself, which doubles as the handle to cancel it (:data:`Event`); it carries
no label; and :attr:`Simulator.now` is a plain attribute the engine assigns
before each callback — read-only by convention, exact whenever it is read
(inside a callback, between ``run(until=...)`` slices, after a callback
raised), like :attr:`Simulator.events_processed`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Callable, Optional

from repro.errors import SimulationError


#: A scheduled callback: the heap entry ``[time, sequence, callback]``.  The
#: engine orders events by ``(time, sequence)`` so that simultaneous events
#: fire in the order they were scheduled, which keeps runs deterministic; the
#: pair is unique, so the callback is never compared.  The entry the heap
#: holds *is* the handle :meth:`Simulator.schedule` returns and
#: :meth:`Simulator.cancel` takes: a plain list, because an event is the
#: hottest allocation of the whole simulator and an instance of any class —
#: even a ``list`` subclass — costs several times as much to create, index
#: and free.
Event = list


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
        self._queue: list[Event] = []
        self._sequence = itertools.count()
        #: Current simulated time in seconds.  A plain attribute, because
        #: every clock, host and node reads it several times per message;
        #: only the engine assigns it (before each callback it runs).
        self.now = 0.0
        self._processed = 0
        self.random = random.Random(seed)
        self._seed = seed
        self._stopped = False

    # ------------------------------------------------------------------ time
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
    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past: delay={delay}")
        event = [self.now + delay, next(self._sequence), callback]
        heapq.heappush(self._queue, event)
        return event

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule an event at {when:.9f} before now={self.now:.9f}")
        event = [when, next(self._sequence), callback]
        heapq.heappush(self._queue, event)
        return event

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a scheduled event: the engine skips it when it is popped
        (it counts as pending until then, never as processed).  A no-op for
        an event that already fired or was cancelled."""
        event[2] = None

    # -------------------------------------------------------------- execution
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue was
        empty or only contained cancelled events.
        """
        queue = self._queue
        while queue:
            when, _, callback = heapq.heappop(queue)
            if callback is None:
                continue
            self.now = when
            callback()
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
            exactly at ``until`` are executed, and the clock is advanced to
            ``until`` when the run ends because nothing earlier is left — not
            when :meth:`stop` or ``max_events`` ended it with such events
            still pending.
        max_events:
            Safety valve: stop after executing exactly this many events.
        """
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        horizon = math.inf if until is None else until
        executed = 0
        self._stopped = False
        # The heap pop/dispatch below is the single hottest loop in the whole
        # library; bind everything it touches to locals.
        queue = self._queue
        heappop = heapq.heappop
        while queue and not self._stopped:
            if executed == max_events:
                return
            event = queue[0]
            callback = event[2]
            if callback is None:
                heappop(queue)
                continue
            if event[0] > horizon:
                break
            heappop(queue)
            self.now = event[0]
            callback()
            self._processed += 1
            executed += 1
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Simulator(now={self.now:.6f}, pending={len(self._queue)}, "
                f"processed={self._processed})")


class PeriodicTask:
    """Helper that reschedules a callback at a fixed period.

    Used for the stabilization protocol, heartbeats and metric sampling.  The
    task runs until :meth:`cancel` is called (which its own callback may do).
    """

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], None], *,
                 start_delay: Optional[float] = None) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._cancelled = False
        delay = period if start_delay is None else start_delay
        self._event = sim.schedule(delay, self._fire)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop rescheduling and cancel the pending occurrence."""
        self._cancelled = True
        self._sim.cancel(self._event)

    def _fire(self) -> None:
        self._callback()
        if not self._cancelled:
            self._event = self._sim.schedule(self._period, self._fire)


__all__ = ["Event", "PeriodicTask", "Simulator"]

"""Simulated processes with a FIFO CPU queue.

Each server in the cluster is a :class:`Node` with a single logical CPU.
Messages delivered by the network are queued; the CPU serves
them in FIFO order, charging each message the service time returned by the
node's :meth:`Node.service_time` hook.  Queueing at the CPU — not the network —
is what produces the latency inflation under load that the paper reports, and
what makes CC-LO's extra PUT work visible in ROT latencies.

A message costs two engine events — its delivery and the completion of its
service — and the queue is touched only when there is queueing.  That rests on
one invariant: **a CPU that is neither busy nor paused has an empty queue**
(``_busy`` is cleared only when the queue is empty or the node is paused, and
:meth:`Node.resume` restarts service before it returns), so a message that
arrives at an idle CPU enters service at once, having waited exactly zero.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator


@dataclass
class ProcessingStats:
    """Per-node counters describing CPU usage and queueing."""

    messages_processed: int = 0
    busy_time: float = 0.0
    total_queue_wait: float = 0.0
    max_queue_length: int = 0

    def utilization(self, elapsed: float) -> float:
        """Fraction of wall-clock (simulated) time the CPU was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def average_queue_wait(self) -> float:
        """Average time a message waited in the CPU queue before service."""
        if self.messages_processed == 0:
            return 0.0
        return self.total_queue_wait / self.messages_processed


class Node:
    """Base class for every simulated process (servers and clients).

    Subclasses implement :meth:`handle_message` (the protocol logic) and
    :meth:`service_time` (how much CPU the message costs).  Nodes are
    identified by a globally unique ``node_id`` and belong to a data center
    ``dc_id``.
    """

    def __init__(self, sim: Simulator, node_id: str, dc_id: int) -> None:
        self.sim = sim
        self.node_id = node_id
        self.dc_id = dc_id
        self.stats = ProcessingStats()
        self._queue: Deque[Tuple[object, object, Optional[str], float]] = deque()
        self._busy = False
        self._serving: Optional[Tuple[object, object, Optional[str]]] = None
        #: Trace id of the message currently being served (observability
        #: metadata, see :mod:`repro.obs`); the network reads it at send
        #: time so outgoing messages inherit the trace of their cause.
        #: Always ``None`` when tracing is disabled.
        self.current_trace: Optional[str] = None
        # Fault-injection state (see repro.faults): a service-time multiplier
        # models a slow node, a paused node queues messages without serving.
        self._service_factor = 1.0
        self._paused = False

    # ------------------------------------------------------------------ queue
    def enqueue_message(self, sender: "Node", message: object,
                        trace: Optional[str] = None) -> None:
        """Called by the network when a message arrives at this node."""
        stats = self.stats
        if self._busy or self._paused:
            queue = self._queue
            queue.append((sender, message, trace, self.sim.now))
            if len(queue) > stats.max_queue_length:
                stats.max_queue_length = len(queue)
            return
        # Idle (the common case below saturation), hence an empty queue (see
        # the module docstring): the message would be appended, make a queue
        # of one, be popped again and be charged a wait of exactly zero.
        if not stats.max_queue_length:
            stats.max_queue_length = 1
        self._serve(sender, message, trace)

    def _serve(self, sender: "Node", message: object,
               trace: Optional[str]) -> None:
        self._busy = True
        service = self.service_time(message)
        if self._service_factor != 1.0:
            service *= self._service_factor
        self.stats.busy_time += service
        # One message is in service at a time (the busy flag serialises the
        # CPU), so the in-flight triple can live on the node instead of in a
        # per-message closure — this runs once per simulated message.
        self._serving = (sender, message, trace)
        self.sim.schedule(service, self._complete_serving)

    def _serve_next(self) -> None:
        """Start on the head of the (non-empty) queue of a running CPU."""
        sender, message, trace, enqueued_at = self._queue.popleft()
        self.stats.total_queue_wait += self.sim.now - enqueued_at
        self._serve(sender, message, trace)

    def _complete_serving(self) -> None:
        sender, message, trace = self._serving  # type: ignore[misc]
        self._serving = None
        self.current_trace = trace
        self.stats.messages_processed += 1
        self.handle_message(sender, message)
        if self._queue and not self._paused:
            self._serve_next()
        else:
            self._busy = False

    # ----------------------------------------------------------------- faults
    def set_service_factor(self, factor: float) -> None:
        """Multiply every subsequent service time (1.0 restores health).

        Used by the fault controller to model slow nodes (thermal throttling,
        noisy neighbours); the inflated time also counts as busy time, so CPU
        utilisation reflects the degradation.
        """
        if factor <= 0:
            raise ConfigurationError(
                f"service factor must be positive, got {factor}")
        self._service_factor = factor

    def pause(self) -> None:
        """Freeze this node's CPU (a GC-stall-style pause).

        The message currently in service finishes; everything else queues
        until :meth:`resume`.
        """
        self._paused = True

    def resume(self) -> None:
        """Resume a paused CPU and start draining the backlog."""
        if not self._paused:
            return
        self._paused = False
        if not self._busy and self._queue:
            self._serve_next()

    @property
    def paused(self) -> bool:
        """Whether the CPU is currently frozen by a fault."""
        return self._paused

    # ------------------------------------------------------------------ hooks
    def service_time(self, message: object) -> float:
        """CPU time (simulated seconds) needed to process ``message``.

        The default charges nothing; servers override this with the cost
        model.  Clients keep the default because the paper's bottleneck is the
        servers, not the client machines.
        """
        return 0.0

    def handle_message(self, sender: "Node", message: object) -> None:
        """Protocol logic; subclasses must override."""
        raise NotImplementedError

    # ------------------------------------------------------------------ misc
    @property
    def queue_length(self) -> int:
        """Number of messages currently waiting for the CPU."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.node_id!r}, dc={self.dc_id})"


__all__ = ["Node", "ProcessingStats"]

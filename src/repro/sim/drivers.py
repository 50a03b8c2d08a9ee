"""Simulated drivers: kernel hosts on the discrete-event simulator.

Everything protocol-independent about hosting a kernel — effect dispatch,
inbound dispatch, operation issue, completion recording — is
:mod:`repro.core.common.host`.  The drivers here add what only the simulator
has:

* a :class:`~repro.sim.node.Node` with a FIFO CPU queue, charged the
  cost-model-driven ``service_time`` of every message (which is what produces
  the queueing dynamics the paper measures);
* sends through the simulated :class:`~repro.sim.network.Network`, timers as
  simulator events, the simulator as the time source;
* for clients, the paper's closed loop: each client has at most one
  outstanding operation and issues the next one as soon as the previous one
  completes.  Load is varied by changing the number of clients, which is
  exactly how the throughput-versus-latency curves of Figures 4–9 are
  produced.

The same two classes drive every protocol; which protocol runs is decided by
the kernel they are given.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.core.common.host import ClientHost, ServerHost
from repro.core.common.kernel import Addr, ClientKernel, ServerKernel, SetTimer
from repro.sim.costs import MESSAGE_PRICES
from repro.sim.engine import PeriodicTask
from repro.sim.node import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import ClusterTopology


class SimDriver(Node):
    """The simulator's side of a kernel host.

    Listed before the host in a driver's bases, so its primitives override
    the host's placeholders; the host must be initialised first (it names
    the node).
    """

    def __init__(self, topology: "ClusterTopology") -> None:
        super().__init__(topology.sim, self.node_id, self.dc_id)
        self.topology = topology
        self.cost_model = topology.config.cost_model

    def _send(self, dest: Addr, message: object,
              size: Optional[int]) -> None:
        # The network reads ``self.current_trace`` to tag the message.
        topology = self.topology
        node = topology.nodes.get(dest)
        if node is None:
            node = topology.node_at(dest)  # raises: no node at ``dest``
        topology.network.send(self, node, message, size)

    def handle_message(self, sender: Node, message: object) -> None:
        """Feed a served ``message`` to the kernel host."""
        self.dispatch(sender.addr, message, self.current_trace)

    def _complete_serving(self) -> None:
        # Node's completion with ``handle_message`` folded into it: a served
        # message goes straight to the host's ``dispatch`` (which adopts the
        # trace), one frame fewer on every simulated message.
        sender, message, trace = self._serving  # type: ignore[misc]
        self._serving = None
        self.stats.messages_processed += 1
        self.dispatch(sender.addr, message, trace)
        if self._queue and not self._paused:
            self._serve_next()
        else:
            self._busy = False


class PartitionServer(SimDriver, ServerHost):
    """A simulated partition server hosting ``kernel``."""

    def __init__(self, topology: "ClusterTopology",
                 kernel: ServerKernel) -> None:
        ServerHost.__init__(self, kernel, topology.sim)
        SimDriver.__init__(self, topology)
        self._periodic_tasks: list[PeriodicTask] = []
        self._base_cost = self.cost_model.message_cost()

    def _arm_timer(self, timer: SetTimer, trace: Optional[str]) -> None:
        tag, payload = timer.tag, timer.payload
        self.sim.schedule(timer.delay,
                          lambda: self.fire_timer(tag, payload, trace))

    def service_time(self, message: object) -> float:
        """Charge the CPU for ``message`` according to the cost model: the
        fixed per-message cost plus the message type's price, if it has one
        (replies in transit to clients and unknown types have none)."""
        price = MESSAGE_PRICES.get(type(message))
        if price is None:
            return self._base_cost
        return self._base_cost + price(self.cost_model, self.kernel, message)

    def start(self) -> None:
        """Start the kernel's periodic protocol tasks (stabilization, GC)."""
        for spec in self.kernel.periodic_timers():
            self._periodic_tasks.append(PeriodicTask(
                self.sim, spec.interval,
                lambda tag=spec.tag: self.fire_timer(tag),
                start_delay=spec.start_delay))

    def stop_background_tasks(self) -> None:
        """Cancel periodic tasks (lets the event queue drain at run end)."""
        for task in self._periodic_tasks:
            task.cancel()
        self._periodic_tasks = []

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"{type(self).__name__}(dc={self.dc_id}, "
                f"partition={self.partition_index})")


class BaseClient(SimDriver, ClientHost):
    """A simulated closed-loop client hosting ``kernel``.

    ``rng`` is shared with the kernel: the driver draws the start-time
    jitter, the kernel draws coordinator choices — in that interleaved order,
    which keeps runs bit-identical.
    """

    def __init__(self, topology: "ClusterTopology", kernel: ClientKernel,
                 rng: random.Random, generator, metrics, checker=None) -> None:
        ClientHost.__init__(self, kernel, topology.sim, generator, metrics,
                            checker)
        SimDriver.__init__(self, topology)
        self._client_cost = self.cost_model.client_cost()
        self.rng = rng
        self._running = False
        # Fault-injection state (see repro.faults): a suspended client stops
        # issuing after its in-flight operation completes; resume restarts it.
        self._suspended = False
        self._idle = False

    # ------------------------------------------------------------------ loop
    def start(self) -> None:
        """Begin issuing operations (called once by the harness)."""
        self._running = True
        # Desynchronise client start times slightly so the first wave of
        # requests does not arrive in lockstep.
        self.sim.schedule(self.rng.random() * 1e-3, self._issue_next)

    def stop(self) -> None:
        """Stop issuing new operations (in-flight ones finish naturally)."""
        self._running = False

    def suspend(self) -> None:
        """Stop issuing once the in-flight operation completes (load shaping)."""
        self._suspended = True

    def resume(self) -> None:
        """Undo :meth:`suspend`; re-enters the closed loop if it had idled."""
        if not self._suspended:
            return
        self._suspended = False
        if self._running and self._idle:
            self._idle = False
            self._issue_next()

    def in_flight_operation(self) -> Optional[tuple[str, float]]:
        """The in-flight operation's ``(kind, age_seconds)``; None when idle.

        Used by the fault controller's stalled-ROT gauge.
        """
        if self.operation is None:
            return None
        return (self.operation.kind, self.sim.now - self._op_started_at)

    def _issue_next(self) -> None:
        if not self._running:
            return
        if self._suspended:
            self._idle = True
            return
        self.issue(self.generator.next_operation())

    def _completed(self, result) -> None:
        del result
        self._issue_next()

    def service_time(self, message: object) -> float:
        """Clients pay a token CPU cost; they are never the bottleneck."""
        del message
        return self._client_cost


__all__ = ["BaseClient", "PartitionServer", "SimDriver"]

"""Real-time (asyncio) drivers: kernel hosts on an event loop.

Where the simulated backend puts a kernel host on a
:class:`~repro.sim.node.Node` with a FIFO CPU queue and virtual time
(:mod:`repro.sim.drivers`), the real-time backend puts the *same host*
(:mod:`repro.core.common.host`) on an event loop and wall-clock time.  A
cluster's nodes share one thread, where a task and a mailbox per node buy no
concurrency, only a wake-up per message; so nodes own no tasks and the loop
enters them two ways: the cluster's run queue (delivered messages, see
:meth:`RealtimeCluster.enqueue`) and timer handles (``call_later`` /
``call_at``).  What either way in raises is recorded on that node
(``failure``), which is not served again.

:class:`RealtimeServer` adds the timers; :class:`RealtimeClient` is the
closed-loop / interactive client: it issues an operation through the host
and awaits the future the host's completion resolves.

Kernels are only ever touched from the event loop's thread, and every
``on_message`` / ``on_timer`` call runs synchronously inside one callback, so
no locking is needed despite the genuine concurrency between clients.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Optional

from repro.core.common.host import ClientHost, ServerHost
from repro.core.common.kernel import (
    Addr,
    ClientKernel,
    ServerKernel,
    SetTimer,
    TimerSpec,
)
from repro.errors import RuntimeBackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.cluster import RealtimeCluster

#: Upper bound on one operation's wall-clock completion (a generous guard:
#: in-process operations complete in microseconds; hitting this means a
#: protocol bug, and failing beats hanging CI).
OPERATION_TIMEOUT_SECONDS = 30.0


class _LoopNode:
    """The event loop's side of a kernel host: delivery, failure, transport.

    Listed before the host in a driver's bases, so its primitives override
    the host's placeholders.
    """

    def __init__(self, cluster: "RealtimeCluster") -> None:
        self.cluster = cluster
        #: First exception a message or timer of this node raised; surfaced
        #: by :meth:`RealtimeCluster.first_failure` so a dead node fails the
        #: run with its root cause instead of an opaque downstream timeout.
        self.failure: Optional[BaseException] = None

    def deliver(self, sender: Addr, message: object,
                trace: Optional[str] = None) -> None:
        """Called by the transport when a message arrives here; the message
        is served by a later pass of the run queue, never re-entrantly."""
        self.cluster.enqueue(self, sender, message, trace)

    def fail(self, error: BaseException) -> None:
        """Record what an input of this node raised (a loop callback has no
        caller to raise to: the loop would log it and the run would pass)."""
        if self.failure is None:
            self.failure = error

    def _send(self, dest: Addr, message: object,
              size: Optional[int]) -> None:
        self.cluster.transport.send(self.addr, dest, message,
                                    self.current_trace)


class RealtimeServer(_LoopNode, ServerHost):
    """One partition's kernel, served from the run queue and loop timers."""

    def __init__(self, cluster: "RealtimeCluster", kernel: ServerKernel) -> None:
        _LoopNode.__init__(self, cluster)
        ServerHost.__init__(self, kernel, cluster.clock)

    def _arm_timer(self, timer: SetTimer, trace: Optional[str]) -> None:
        self.cluster.loop.call_later(timer.delay, self._timer_due,
                                     timer.tag, timer.payload, trace)

    def _timer_due(self, tag: str, payload: object = None,
                   trace: Optional[str] = None) -> None:
        if self.cluster.loop is None or self.failure is not None:
            return  # the cluster stopped, or this node did
        try:
            self.fire_timer(tag, payload, trace)
        except Exception as error:  # noqa: BLE001 - kept on the node
            self.fail(error)

    def _periodic_due(self, spec: TimerSpec, due: float) -> None:
        loop = self.cluster.loop
        if loop is None or self.failure is not None:
            return
        # Absolute deadlines: ``interval`` after each fire would add the
        # loop's scheduling delay to every period (under load, stabilization
        # ran a third slower than configured).  Clamped to now, so a stalled
        # loop skips the occurrences it missed instead of firing a burst.
        due = max(due + spec.interval, loop.time())
        loop.call_at(due, self._periodic_due, spec, due)
        self._timer_due(spec.tag)

    def start(self) -> None:
        """Arm the kernel's periodic timers on the cluster's loop."""
        loop = self.cluster.loop
        for spec in self.kernel.periodic_timers():
            delay = (spec.interval if spec.start_delay is None
                     else spec.start_delay)
            due = loop.time() + delay
            loop.call_at(due, self._periodic_due, spec, due)


class RealtimeClient(_LoopNode, ClientHost):
    """A client driving one operation at a time through its kernel.

    Used in two modes: *closed loop* (:meth:`run_closed_loop`, the load
    generator of :func:`repro.harness.runner.run_experiment` off the
    simulator) and *interactive* (:meth:`perform`, the ``inproc`` and
    ``tcp`` backends of :class:`repro.api.CausalStore`).
    """

    def __init__(self, cluster: "RealtimeCluster", kernel: ClientKernel,
                 generator=None) -> None:
        _LoopNode.__init__(self, cluster)
        ClientHost.__init__(self, kernel, cluster.clock, generator,
                            cluster.metrics, cluster.checker)
        self._op_future: Optional[asyncio.Future] = None
        # Set when an operation timed out or was failed (see :meth:`fail`):
        # the kernel still considers that operation in flight, so a later
        # completion could otherwise resolve (and mis-record) the *next*
        # operation.  A broken client refuses further operations instead.
        self._broken: Optional[str] = None

    def _completed(self, result) -> None:
        future, self._op_future = self._op_future, None
        if future is not None and not future.done():
            future.set_result(result)

    def fail(self, error: BaseException) -> None:
        """The operation in flight cannot complete any more (a reply made
        the kernel raise, or a node it waits on is gone): fail it with the
        cause now, not with a timeout 30 s later."""
        super().fail(error)
        self._broken = f"its operation failed with {error!r}"
        future, self._op_future = self._op_future, None
        if future is not None and not future.done():
            future.set_exception(error)

    # ------------------------------------------------------------- operations
    async def perform(self, operation,
                      timeout: float = OPERATION_TIMEOUT_SECONDS):
        """Issue ``operation`` and wait for its completion.

        Returns the kernel's outcome (:class:`PutOutcome` /
        :class:`RotOutcome`).
        """
        if self.cluster._closed:
            # Nobody drains the run queue of a stopped cluster: fail now, not
            # at the timeout (a stopped TCP transport refuses the send itself).
            raise RuntimeBackendError("cluster is closed")
        if self._broken is not None:
            raise RuntimeBackendError(
                f"{self.node_id} is unusable: {self._broken}")
        if self._op_future is not None:
            raise RuntimeBackendError(
                f"{self.node_id} already has an operation in flight")
        self._op_future = asyncio.get_running_loop().create_future()
        try:
            self.issue(operation)
        except BaseException:
            # Nothing is in flight after a send that raised (no route): the
            # next call must get that cause too, not "already in flight".
            self._op_future = self.operation = None
            raise
        try:
            return await asyncio.wait_for(
                asyncio.shield(self._op_future), timeout)
        except asyncio.TimeoutError as exc:
            self._op_future = None
            self._broken = (f"operation {operation.kind} (sequence "
                            f"{self.sequence}) did not complete within "
                            f"{timeout}s")
            raise RuntimeBackendError(
                f"{self.node_id}: {self._broken}") from exc

    async def run_closed_loop(self, stop: asyncio.Event) -> None:
        """Issue operations back-to-back until ``stop`` is set."""
        while not stop.is_set():
            await self.perform(self.generator.next_operation())


__all__ = ["OPERATION_TIMEOUT_SECONDS", "RealtimeClient", "RealtimeServer"]

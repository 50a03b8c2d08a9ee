"""Real-time (asyncio) drivers: kernel hosts on an event loop.

Where the simulated backend puts a kernel host on a
:class:`~repro.sim.node.Node` with a FIFO CPU queue and virtual time
(:mod:`repro.sim.drivers`), the real-time backend puts the *same host*
(:mod:`repro.core.common.host`) on an asyncio task with a real mailbox
(:class:`asyncio.Queue`) and wall-clock time.  The drivers here add only
what asyncio has:

* :class:`RealtimeServer` — one task draining the mailbox into the host;
  sends go to the cluster's transport, ``SetTimer`` becomes an
  ``asyncio.sleep`` task, periodic timers become looping tasks.
* :class:`RealtimeClient` — the closed-loop / interactive client: it issues
  an operation through the host and awaits the future the host's completion
  resolves.

Kernels are only ever touched from the event loop's thread, and every
``on_message`` / ``on_timer`` call runs synchronously between awaits, so no
locking is needed despite the genuine concurrency between clients.
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

#: Upper bound on waiting for one node's cancelled tasks to finish during
#: :meth:`_MailboxNode.stop`.  A task that swallows cancellation must not
#: hang teardown forever — after this window it is abandoned (and reported),
#: which still beats leaking it to the garbage collector.
NODE_STOP_TIMEOUT_SECONDS = 5.0


class _MailboxNode:
    """The event loop's side of a kernel host: mailbox, tasks, transport.

    Listed before the host in a driver's bases, so its primitives override
    the host's placeholders.
    """

    def __init__(self, cluster: "RealtimeCluster") -> None:
        self.cluster = cluster
        self.mailbox: asyncio.Queue = asyncio.Queue()
        self._tasks: set[asyncio.Task] = set()
        #: First exception that killed one of this node's tasks; surfaced by
        #: :meth:`RealtimeCluster.first_failure` so a dead pump fails the run
        #: with its root cause instead of an opaque downstream timeout.
        self.failure: Optional[BaseException] = None

    def deliver(self, sender: Addr, message: object,
                trace: Optional[str] = None) -> None:
        """Called by the transport when a message arrives here."""
        self.mailbox.put_nowait((sender, message, trace))

    def _send(self, dest: Addr, message: object) -> None:
        self.cluster.transport.send(self.addr, dest, message,
                                    self.current_trace)

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._task_done)
        return task

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled():
            error = task.exception()
            if error is not None and self.failure is None:
                self.failure = error

    def start(self) -> None:
        """Spawn this node's tasks on the running event loop."""
        self._spawn(self._pump())

    async def stop(self) -> None:
        """Cancel and *await* every task this node spawned (bounded).

        Deterministic teardown is part of the close contract: relying on the
        garbage collector to reap still-pending tasks produces
        ``Task was destroyed but it is pending!`` warnings and leaves the
        event loop unclosable.  Cancellation is awaited with a bounded
        timeout so a task that ignores it cannot hang ``close()``.
        """
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if not tasks:
            return
        done, pending = await asyncio.wait(
            tasks, timeout=NODE_STOP_TIMEOUT_SECONDS)
        for task in done:
            if not task.cancelled() and task.exception() is not None \
                    and self.failure is None:
                self.failure = task.exception()
        if pending and self.failure is None:
            self.failure = RuntimeBackendError(
                f"{len(pending)} task(s) of this node ignored cancellation "
                f"for {NODE_STOP_TIMEOUT_SECONDS}s during stop()")

    async def _pump(self) -> None:
        while True:
            sender, message, trace = await self.mailbox.get()
            self.dispatch(sender, message, trace)


class RealtimeServer(_MailboxNode, ServerHost):
    """An asyncio task serving one partition through its kernel."""

    def __init__(self, cluster: "RealtimeCluster", kernel: ServerKernel) -> None:
        _MailboxNode.__init__(self, cluster)
        ServerHost.__init__(self, kernel, cluster.clock)

    def _arm_timer(self, timer: SetTimer, trace: Optional[str]) -> None:
        self._spawn(self._one_shot(timer, trace))

    async def _one_shot(self, timer: SetTimer, trace: Optional[str]) -> None:
        await asyncio.sleep(timer.delay)
        self.fire_timer(timer.tag, timer.payload, trace)

    async def _periodic(self, spec: TimerSpec) -> None:
        delay = spec.interval if spec.start_delay is None else spec.start_delay
        await asyncio.sleep(delay)
        while True:
            self.fire_timer(spec.tag)
            await asyncio.sleep(spec.interval)

    def start(self) -> None:
        super().start()
        for spec in self.kernel.periodic_timers():
            self._spawn(self._periodic(spec))


class RealtimeClient(_MailboxNode, ClientHost):
    """A client driving one operation at a time through its kernel.

    Used in two modes: *closed loop* (:meth:`run_closed_loop`, the load
    generator of :func:`repro.runtime.experiment.run_realtime_experiment`)
    and *interactive* (:meth:`perform`, the realtime backend of
    :class:`repro.api.CausalStore`).
    """

    def __init__(self, cluster: "RealtimeCluster", kernel: ClientKernel,
                 generator=None) -> None:
        _MailboxNode.__init__(self, cluster)
        ClientHost.__init__(self, kernel, cluster.clock, generator,
                            cluster.metrics, cluster.checker)
        self._op_future: Optional[asyncio.Future] = None
        # Set when an operation timed out: the kernel still considers that
        # operation in flight, so a later completion could otherwise resolve
        # (and mis-record) the *next* operation.  A broken client refuses
        # further operations instead.
        self._broken: Optional[str] = None

    def _completed(self, result) -> None:
        future, self._op_future = self._op_future, None
        if future is not None and not future.done():
            future.set_result(result)

    # ------------------------------------------------------------- operations
    async def perform(self, operation,
                      timeout: float = OPERATION_TIMEOUT_SECONDS):
        """Issue ``operation`` and wait for its completion.

        Returns the kernel's outcome (:class:`PutOutcome` /
        :class:`RotOutcome`).
        """
        if self._broken is not None:
            raise RuntimeBackendError(
                f"{self.node_id} is unusable after a timed-out operation: "
                f"{self._broken}")
        if self._op_future is not None:
            raise RuntimeBackendError(
                f"{self.node_id} already has an operation in flight")
        self._op_future = asyncio.get_running_loop().create_future()
        self.issue(operation)
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


__all__ = ["NODE_STOP_TIMEOUT_SECONDS", "OPERATION_TIMEOUT_SECONDS",
           "RealtimeClient", "RealtimeServer"]

"""Real-time cluster: kernels wired over a pluggable transport.

A :class:`RealtimeCluster` is the real-time analogue of the harness builder
plus :class:`~repro.cluster.topology.ClusterTopology`: it instantiates sans-I/O
server kernels (one per local (DC, partition) pair), preloads the keyspace
exactly like the simulated builder, creates clients, and routes kernel
:class:`~repro.core.common.kernel.Send` effects through a
:class:`~repro.runtime.transport.Transport`.  Time is wall-clock
(:class:`~repro.clocks.timesource.WallClock`), so HLC physical components
and Cure's skew-induced blocking are driven by the actual clock.

With the default :class:`~repro.runtime.transport.InprocTransport` every node
lives on one event loop and delivery is an append to the cluster's run queue
— genuine concurrency without serialisation cost.  With a
:class:`~repro.runtime.transport.TcpTransport` the cluster holds only the
*local* subset of nodes (``server_ids``) and remote sends become coalesced
wire-encoded frames — the building block
:class:`~repro.runtime.process.ProcessCluster` spawns one of per worker
process.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Iterable, Optional

from repro.causal.streaming import require_recorder
from repro.clocks.timesource import WallClock
from repro.cluster.config import ClusterConfig
from repro.cluster.partitioning import HashPartitioner
from repro.cluster.seeding import node_rng, preload_initial_keyspace
from repro.core.registry import resolve_spec
from repro.errors import RuntimeBackendError
from repro.metrics.collectors import MetricsRegistry
from repro.metrics.overheads import OverheadCounters
from repro.obs.bus import EventBus
from repro.obs.trace import TraceAssembler
from repro.runtime.nodes import RealtimeClient, RealtimeServer
from repro.runtime.transport import InprocTransport, Transport
from repro.workload.generator import WorkloadGenerator
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters


class RealtimeCluster:
    """The real-time nodes of one run (or of one worker's local slice).

    Parameters
    ----------
    protocol:
        Registered protocol name (see
        :func:`repro.core.registry.register_protocol`).
    config / workload:
        Same objects the simulated builder takes.
    checker:
        The recorder (``record_put`` / ``record_rot``) every client hands
        its completed operations to — a
        :class:`~repro.causal.streaming.StreamingChecker`, or the
        :class:`~repro.causal.streaming.ObservationBuffer` a worker process
        streams its log to the parent from; ``None`` records nothing.
        :class:`~repro.runtime.process.ProcessCluster`,
        :func:`~repro.harness.runner.run_experiment` and
        :class:`~repro.api.CausalStore` hand theirs down untouched.
    workload_clients:
        Create the ``config.clients_per_dc`` closed-loop clients.  The
        :class:`~repro.api.CausalStore` facade passes ``False`` and attaches
        interactive clients instead.
    transport:
        Message delivery between nodes; defaults to a fresh
        :class:`~repro.runtime.transport.InprocTransport`.
    server_ids:
        The (DC, partition) pairs instantiated *locally*; ``None`` (default)
        means the full topology.  Worker processes pass their slice and rely
        on the transport's peer table for everything else.
    trace / trace_source:
        Enable the :mod:`repro.obs` event bus on every local node (wall-clock
        timestamps); ``trace_source`` labels this cluster's event stream in
        the merged timeline (worker processes pass their worker id).
    """

    def __init__(self, protocol: str, config: Optional[ClusterConfig] = None,
                 workload: Optional[WorkloadParameters] = None, *,
                 checker: Optional[object] = None,
                 workload_clients: bool = True,
                 transport: Optional[Transport] = None,
                 server_ids: Optional[Iterable[tuple[int, int]]] = None,
                 trace: bool = False, trace_source: str = "local") -> None:
        self.protocol = protocol
        self.config = config = config or ClusterConfig()
        self.workload = workload = workload or DEFAULT_WORKLOAD
        self._spec = spec = resolve_spec(protocol)
        self.clock = WallClock()
        self.transport = (transport if transport is not None
                          else InprocTransport())
        self.partitioner = HashPartitioner(config.num_partitions)
        self.metrics = MetricsRegistry(warmup_seconds=config.warmup_seconds)
        require_recorder(checker)
        self.checker: Optional[object] = checker
        self.trace_bus: Optional[EventBus] = (
            EventBus(self.clock, source=trace_source) if trace else None)
        if self.trace_bus is not None:
            self.transport.tracer = self.trace_bus
            if self.checker is not None and hasattr(self.checker, "tracer"):
                self.checker.tracer = self.trace_bus
        self._closed = False
        #: Every delivery to a local node, in arrival order (which is
        #: per-node FIFO for free), until the next :meth:`_drain` pass.
        self._run_queue: deque = deque()
        self._drain_handle: Optional[asyncio.Handle] = None
        #: The loop the nodes are served on: ``None`` before ``start()``
        #: (deliveries are held) and after ``stop()``, which is also the
        #: gate the servers' pending timer handles check when they come due.
        self.loop: Optional[asyncio.AbstractEventLoop] = None

        if server_ids is None:
            server_ids = [(dc, partition)
                          for dc in range(config.num_dcs)
                          for partition in range(config.num_partitions)]
        self.servers: dict[tuple[int, int], RealtimeServer] = {}
        for dc, partition in server_ids:
            kernel = spec.build_server_kernel(
                config, dc, partition, partitioner=self.partitioner,
                time_source=self.clock)
            server = RealtimeServer(self, kernel)
            server.tracer = kernel.tracer = self.trace_bus
            self.servers[(dc, partition)] = server
            self.transport.register_local(server.addr, server)
        self._preload_keyspace()

        self.clients: list[RealtimeClient] = []
        if workload_clients:
            for dc in range(config.num_dcs):
                for index in range(config.clients_per_dc):
                    self.add_workload_client(dc, index)

    def _preload_keyspace(self) -> None:
        """Seed every local store with the shared initial-keyspace invariant."""
        preload_initial_keyspace(
            ((partition, server.store)
             for (_dc, partition), server in self.servers.items()),
            num_dcs=self.config.num_dcs,
            keys_per_partition=self.config.keys_per_partition,
            value_size=self.workload.value_size)

    # ---------------------------------------------------------------- clients
    def add_client(self, dc: int, index: int, *,
                   generator=None) -> RealtimeClient:
        """Create (and register) a client bound to data center ``dc``."""
        kernel, _rng = self._spec.build_client_kernel(
            self.config, dc, index, partitioner=self.partitioner)
        client = RealtimeClient(self, kernel, generator=generator)
        client.tracer = kernel.tracer = self.trace_bus
        self.clients.append(client)
        self.transport.register_local(client.addr, client)
        return client

    def add_workload_client(self, dc: int, index: int) -> RealtimeClient:
        """Create a closed-loop client with its deterministic generator.

        Used both by the in-process constructor and by worker processes, so
        client ``(dc, index)`` draws the same operation stream wherever it
        is instantiated.
        """
        generator = WorkloadGenerator(
            self.workload, self.partitioner, self.config.keys_per_partition,
            rng=node_rng(self.config.seed, "workload", dc, index))
        return self.add_client(dc, index, generator=generator)

    def clients_in_dc(self, dc: int) -> list[RealtimeClient]:
        """Clients attached to data center ``dc``."""
        return [client for client in self.clients if client.dc_id == dc]

    # -------------------------------------------------------------- lifecycle
    async def start(self, *, wall_epoch: Optional[float] = None) -> None:
        """Start serving the nodes on the running event loop.

        ``wall_epoch`` (a ``time.time()`` instant) aligns this cluster's
        clock with other processes of the same run; without it the clock
        re-zeros locally (the single-process behaviour).
        """
        if self._closed:
            raise RuntimeBackendError("cluster is closed")
        if self.loop is not None:
            # Idempotent: a second start must not arm the periodic timers
            # twice (doubled stabilization and heartbeat traffic otherwise).
            return
        await self.transport.start()
        # Re-zero the run clock: construction work (keyspace preload) must
        # not eat into the warmup window the metrics discard.
        if wall_epoch is None:
            self.clock.reset()
        else:
            self.clock.sync_to_wall_epoch(wall_epoch)
        self.loop = asyncio.get_running_loop()
        if self._run_queue:
            self._drain_handle = self.loop.call_soon(self._drain)
        for server in self.servers.values():
            server.start()

    async def stop(self) -> None:
        """Stop serving (no kernel is called once this returns), then close
        the transport; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.loop = None
        if self._drain_handle is not None:
            self._drain_handle.cancel()
        self._run_queue.clear()
        await self.transport.stop()

    # -------------------------------------------------------------- run queue
    def enqueue(self, node, sender, message: object,
                trace: Optional[str]) -> None:
        """A node's ``deliver``: queue the message, never dispatch it."""
        self._run_queue.append((node, sender, message, trace))
        if self._drain_handle is None and self.loop is not None:
            self._drain_handle = self.loop.call_soon(self._drain)

    def _drain(self) -> None:
        # One pass serves only what was queued when it started; what the
        # pass itself enqueues waits for the next (the first such
        # ``enqueue`` schedules it).  Timers, sockets and other coroutines
        # thus get the loop back after every pass, as between two rounds of
        # the loop's own ready queue: a message chain cannot starve them.
        self._drain_handle = None
        queue = self._run_queue
        for _ in range(len(queue)):
            node, sender, message, trace = queue.popleft()
            if node.failure is None:
                try:
                    node.dispatch(sender, message, trace)
                except Exception as error:  # noqa: BLE001 - kept on the node
                    node.fail(error)

    def first_failure(self) -> Optional[BaseException]:
        """The first exception that stopped any node or transport link.

        A node whose kernel raised or a dead peer connection otherwise only
        manifests as downstream operation timeouts; the experiment runner
        raises this root cause instead.
        """
        for node in [*self.servers.values(), *self.clients]:
            if node.failure is not None:
                return node.failure
        return self.transport.failure

    # ------------------------------------------------------------------ trace
    def collect_trace(self) -> Optional[TraceAssembler]:
        """Drain the local event bus into a fresh assembler (None if off)."""
        bus = self.trace_bus
        if bus is None:
            return None
        assembler = TraceAssembler()
        assembler.ingest_bus(bus)
        return assembler

    # ------------------------------------------------------------------ stats
    def overhead(self) -> OverheadCounters:
        """Merged overhead counters across all local partition servers."""
        overhead = OverheadCounters()
        for server in self.servers.values():
            overhead.merge(server.counters)
        return overhead


#: Grace period for closed loops to finish their in-flight operation after
#: the stop event is set.
CLOSED_LOOP_GRACE_SECONDS = 10.0


async def drive_closed_loops(cluster: RealtimeCluster,
                             duration_seconds: float) -> None:
    """Serve ``cluster``'s closed-loop clients for a wall-clock duration.

    Starts one loop per client, lets them run for ``duration_seconds``, then
    stops them with a bounded grace period.  A client loop that died
    (protocol bug, operation timeout) FAILS the call — degraded numbers with
    exit 0 would defeat the CI smoke jobs.  Used by the in-process
    experiment runner and, per worker process, by the TCP process cluster.
    The caller owns cluster start/stop; cancelling the call cancels the loops.
    """
    stop = asyncio.Event()
    loops = [asyncio.ensure_future(client.run_closed_loop(stop))
             for client in cluster.clients]
    stuck: list[asyncio.Task] = []
    errors: list[BaseException] = []
    try:
        if loops:
            # A closed loop never returns before ``stop`` is set, so one that
            # is done early has failed: report it now, not when the run is
            # over.
            await asyncio.wait(loops, timeout=duration_seconds,
                               return_when=asyncio.FIRST_COMPLETED)
        else:
            await asyncio.sleep(duration_seconds)
        stop.set()
        if loops:
            done, pending = await asyncio.wait(
                loops, timeout=CLOSED_LOOP_GRACE_SECONDS)
            stuck = list(pending)
            errors = [error for task in done
                      if not task.cancelled()
                      and (error := task.exception()) is not None]
    finally:
        # Stuck loops, and every loop when this call itself is cancelled
        # (a worker told to shut down mid-run): none outlives the call.
        # ``stop`` first: a cancellation that lands in the loop iteration an
        # operation completes in is swallowed by 3.11's ``wait_for``, and
        # that loop must then leave at its next ``stop`` test.
        stop.set()
        for task in loops:
            task.cancel()
        await asyncio.gather(*loops, return_exceptions=True)
    # Root cause first: a dead server explains both the client-side
    # timeout errors and any stuck loops.
    failure = cluster.first_failure()
    if failure is not None:
        raise failure
    if errors:
        raise errors[0]
    if stuck:
        raise RuntimeBackendError(
            f"{len(stuck)} closed-loop client(s) failed to stop within "
            f"the grace period (an operation is stuck)")


__all__ = ["CLOSED_LOOP_GRACE_SECONDS", "RealtimeCluster",
           "drive_closed_loops"]

"""Multi-process TCP clusters: one OS process per partition server.

A :class:`ProcessCluster` is the top of the transport stack: it spawns every
partition server of a run in its own OS process (``multiprocessing`` spawn
context, one asyncio loop per worker), wires all of them — plus optional
per-DC client worker processes and any parent-local interactive clients —
into one mesh of :class:`~repro.runtime.transport.TcpTransport` peers, and
coordinates the run over a TCP *control plane* that speaks the same wire
codec as the data path.

Control protocol (all frames are :mod:`repro.wire` encodings)::

    worker -> parent   WorkerHello(worker_id, host, port)   after binding
    parent -> worker   PeerTable(entries, wall_epoch)       full address map
    worker -> parent   WorkerReady(worker_id)               cluster started
    parent -> worker   StartRun(duration_seconds)           client workers:
                                                            begin closed loops
    worker -> parent   ObservationChunk(worker_id, puts,    every flush period
                                        rots)               while loops run
    worker -> parent   WorkerResult(...)                    measurements: after
                                                            the run, or at
                                                            shutdown
    parent -> worker   Shutdown()                           graceful exit
    worker -> parent   WorkerError(worker_id, message)      on any failure

One road leads from a worker's operation to the verdict: a client worker
records into an :class:`~repro.causal.streaming.ObservationBuffer`, ships it
as :class:`ObservationChunk` frames while its loops run, and the parent folds
each chunk on arrival into whatever checker the run has
(``record_history(puts, rots, source="worker-N")``).  :class:`WorkerResult`
carries the rest: latency samples, operation counts, the servers' overhead
counters, drained trace events.

The parent keeps one record per worker, updated by that worker's connection
handler, and has one way to wait: *every worker of this set has reached
state X, or any worker is gone first*.  A worker is **gone** when its control
connection reaches EOF (TCP orders that after its last frame, so nothing it
sent is missed), when its process exits before it ever connected
(``process.sentinel``), or when it sends :class:`WorkerError`.  A worker
keeps reading its control connection while its closed loops run, so
:class:`Shutdown` — or a vanished parent — ends a run at once.

Clocks: per-process monotonic origins are arbitrary, so the parent
distributes one ``time.time()`` epoch in the peer table and every worker
aligns its :class:`~repro.clocks.timesource.WallClock` to it — cross-process
skew collapses from process start-up stagger to system-clock read jitter.
Randomness: every node seed derives from
:func:`repro.cluster.seeding.node_rng`, so a node draws the same stream in a
worker as it would in-process.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.causal.checker import RecordedPut, RecordedRead, RecordedRot
from repro.causal.streaming import ObservationBuffer
from repro.cluster.config import ClusterConfig
from repro.core.common.kernel import (
    Addr,
    ClientAddr,
    ServerAddr,
    client_node_id,
)
from repro.core.registry import resolve_spec
from repro.errors import ConfigurationError, RuntimeBackendError
from repro.metrics.overheads import OverheadCounters
from repro.obs.events import TraceEvent
from repro.obs.trace import TraceAssembler
from repro.runtime.cluster import RealtimeCluster, drive_closed_loops
from repro.runtime.nodes import OPERATION_TIMEOUT_SECONDS
from repro.runtime.transport import TcpTransport
from repro.wire.codec import decode, encode, register_wire_type
from repro.wire.framing import frame, read_frame, write_frame
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters

#: Bound on worker start-up (spawn + import + bind + hello) and handshakes.
WORKER_STARTUP_TIMEOUT_SECONDS = 60.0
#: Bound on a worker's shutdown-time result + exit.
WORKER_SHUTDOWN_TIMEOUT_SECONDS = 30.0
#: How often a client worker ships its observation buffer: worker-side
#: buffering (and the parent checker's ingest lag) is bounded by one
#: interval's worth of operations, not the run length.
OBSERVATION_FLUSH_SECONDS = 0.1

# Reserved wire ids of the control plane (see repro.runtime.transport for
# the 512-block convention).
register_wire_type(RecordedPut, type_id=520)
register_wire_type(RecordedRead, type_id=521)
register_wire_type(RecordedRot, type_id=522)
register_wire_type(OverheadCounters, type_id=523)


@dataclass(frozen=True)
class WorkerRole:
    """What one worker process hosts: server and/or client nodes."""

    worker_id: int
    server_ids: tuple[tuple[int, int], ...]
    client_ids: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its cluster slice (picklable)."""

    protocol: str
    config: ClusterConfig
    workload: WorkloadParameters
    role: WorkerRole
    control_host: str
    control_port: int
    #: Record the client nodes' operations and ship them to the parent.
    record_history: bool
    #: Enable the repro.obs event bus in the worker.
    trace: bool = False


@dataclass(frozen=True)
class WorkerHello:
    """Worker -> parent: the worker's data listener is bound."""

    worker_id: int
    host: str
    port: int


@dataclass(frozen=True)
class PeerEntry:
    """One address -> endpoint binding of the cluster-wide peer table."""

    addr: Addr
    host: str
    port: int


@dataclass(frozen=True)
class PeerTable:
    """Parent -> worker: the full mesh plus the shared clock epoch."""

    entries: tuple[PeerEntry, ...]
    wall_epoch: float


@dataclass(frozen=True)
class WorkerReady:
    """Worker -> parent: peers installed, cluster started."""

    worker_id: int


@dataclass(frozen=True)
class StartRun:
    """Parent -> worker: serve closed-loop traffic for this long."""

    duration_seconds: float


@dataclass(frozen=True)
class Shutdown:
    """Parent -> worker: stop serving, report, exit."""


@dataclass(frozen=True)
class WorkerError:
    """Worker -> parent: the worker failed; ``message`` carries the trace."""

    worker_id: int
    message: str


@dataclass(frozen=True)
class WorkerResult:
    """Worker -> parent: a worker's measurements.

    Latency samples and operation counts of its clients (empty for
    server-only workers) and the merged ``overhead`` counters of its
    partition servers (empty for client-only workers).  The observation log
    is not here: it went ahead as :class:`ObservationChunk` frames.
    """

    worker_id: int
    rot_samples: tuple[float, ...]
    put_samples: tuple[float, ...]
    rots_issued: int
    puts_issued: int
    overhead: OverheadCounters
    #: Drained repro.obs trace events (empty when tracing is off) plus the
    #: worker bus's drop counter, so the parent's assembler can tell lost
    #: events from an idle worker.
    events: tuple[TraceEvent, ...] = ()
    events_dropped: int = 0


@dataclass(frozen=True)
class ObservationChunk:
    """Worker -> parent: one drained slice of the observation log.

    Sent every :data:`OBSERVATION_FLUSH_SECONDS` while a client worker's
    loops run, so the parent's checker ingests (and a streaming checker
    verifies windows) while traffic is still flowing.  The records travel as
    typed tuple fields through their types' compiled packers.
    """

    worker_id: int
    puts: tuple[RecordedPut, ...]
    rots: tuple[RecordedRot, ...]


for _index, _cls in enumerate((WorkerHello, PeerEntry, PeerTable, WorkerReady,
                               StartRun, Shutdown, WorkerError, WorkerResult,
                               ObservationChunk)):
    register_wire_type(_cls, type_id=540 + _index)


def default_placement(config: ClusterConfig, *,
                      workload_clients: bool) -> tuple[WorkerRole, ...]:
    """One worker per partition server, plus one client worker per DC."""
    roles: list[WorkerRole] = []
    for dc in range(config.num_dcs):
        for partition in range(config.num_partitions):
            roles.append(WorkerRole(len(roles), ((dc, partition),), ()))
    if workload_clients:
        for dc in range(config.num_dcs):
            roles.append(WorkerRole(
                len(roles), (),
                tuple((dc, index)
                      for index in range(config.clients_per_dc))))
    return tuple(roles)


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

def _collect_result(cluster: RealtimeCluster, worker_id: int) -> WorkerResult:
    """Snapshot a worker's measurements for shipping to the parent."""
    metrics, bus = cluster.metrics, cluster.trace_bus
    return WorkerResult(
        worker_id=worker_id,
        rot_samples=metrics.rot_latencies.samples(),
        put_samples=metrics.put_latencies.samples(),
        rots_issued=metrics.rots_issued,
        puts_issued=metrics.puts_issued,
        overhead=cluster.overhead(),
        events=bus.drain() if bus is not None else (),
        events_dropped=bus.dropped if bus is not None else 0)


async def _worker_main(spec: WorkerSpec) -> None:
    role = spec.role
    transport = TcpTransport()
    observations = (ObservationBuffer()
                    if spec.record_history and role.client_ids else None)
    cluster = RealtimeCluster(
        spec.protocol, spec.config, spec.workload, checker=observations,
        workload_clients=False, transport=transport,
        server_ids=role.server_ids,
        trace=spec.trace, trace_source=f"worker-{role.worker_id}")
    for dc, index in role.client_ids:
        cluster.add_workload_client(dc, index)
    await transport.start()  # binds: the hello carries the port

    reader, writer = await asyncio.open_connection(
        spec.control_host, spec.control_port)

    # Every frame of this worker is written by this coroutine, one
    # ``writer.write`` each: frames cannot interleave.
    async def send(message: object) -> None:
        await write_frame(writer, encode(message))

    async def ship_observations() -> None:
        if observations is not None and observations.pending:
            puts, rots = observations.drain()
            await send(ObservationChunk(role.worker_id, puts, rots))

    #: The control frame being read while closed loops run (see StartRun).
    next_frame: Optional[asyncio.Future] = None
    result_sent = False
    try:
        await send(WorkerHello(role.worker_id, transport.host, transport.port))
        while True:
            payload = await (next_frame or read_frame(reader))
            next_frame = None
            if payload is None:
                break  # parent vanished; exit quietly
            message = decode(payload)
            if isinstance(message, PeerTable):
                transport.set_peers({entry.addr: (entry.host, entry.port)
                                     for entry in message.entries})
                await cluster.start(wall_epoch=message.wall_epoch)
                await send(WorkerReady(role.worker_id))
            elif isinstance(message, StartRun) and not result_sent:
                # Re-anchor the warmup window at traffic start: the shared
                # epoch began at spawn time, long before the first operation.
                cluster.metrics.warmup_seconds = (
                    cluster.clock.now + spec.config.warmup_seconds)
                loops = asyncio.ensure_future(drive_closed_loops(
                    cluster, message.duration_seconds))
                # Keep reading the control connection while the loops run:
                # any frame (Shutdown) or EOF (no parent) ends the run now.
                next_frame = asyncio.ensure_future(read_frame(reader))
                while not (loops.done() or next_frame.done()):
                    await asyncio.wait({loops, next_frame},
                                       timeout=OBSERVATION_FLUSH_SECONDS,
                                       return_when=asyncio.FIRST_COMPLETED)
                    await ship_observations()
                if not loops.done():
                    loops.cancel()
                    await asyncio.wait({loops})
                    continue
                loops.result()  # a failed run is this worker's failure
                await send(_collect_result(cluster, role.worker_id))
                result_sent = True
            elif isinstance(message, Shutdown):
                await cluster.stop()
                if not result_sent:
                    await send(_collect_result(cluster, role.worker_id))
                break
            else:
                raise RuntimeBackendError(
                    f"worker {role.worker_id} received an unexpected "
                    f"control message {type(message).__name__}")
    except Exception:  # noqa: BLE001 - reported to the parent, then re-raised
        try:
            await send(WorkerError(role.worker_id, traceback.format_exc()))
        except (OSError, RuntimeError):
            pass
        raise
    finally:
        if next_frame is not None:
            next_frame.cancel()
        await cluster.stop()
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass


def worker_entry(spec: WorkerSpec) -> None:
    """Process entry point (must stay importable for the spawn context)."""
    try:
        asyncio.run(_worker_main(spec))
    except Exception:  # noqa: BLE001
        traceback.print_exc(file=sys.stderr)
        raise SystemExit(1)


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------

@dataclass
class _Worker:
    """The parent's record of one worker process.

    Written by :meth:`ProcessCluster.start` (``process``) and then only by
    the worker's own connection handler and its exit watcher; read by
    :meth:`ProcessCluster._until`.
    """

    role: WorkerRole
    process: multiprocessing.process.BaseProcess
    writer: Optional[asyncio.StreamWriter] = None
    hello: Optional[WorkerHello] = None
    ready: bool = False
    #: Its WorkerResult has arrived and is merged.
    result: bool = False
    #: Why nothing more will come from this worker (None while it may).
    gone: Optional[str] = None

    def __str__(self) -> str:
        hosts = (f"server {list(self.role.server_ids)}" if self.role.server_ids
                 else f"clients {list(self.role.client_ids)}")
        return f"worker {self.role.worker_id} ({hosts})"


class ProcessCluster:
    """A realtime cluster whose partition servers are separate OS processes.

    Facade-compatible with :class:`~repro.runtime.cluster.RealtimeCluster`
    (``clock`` / ``checker`` / ``metrics`` / ``add_client`` /
    ``first_failure`` / ``start`` / ``stop``), so
    :class:`repro.api.CausalStore` and the experiment runner drive either
    interchangeably; ``checker`` means what it means there and is handed
    to the parent-local view untouched.  Interactive clients added via
    :meth:`add_client` live in the parent process and must be added
    *before* :meth:`start` (the peer table is distributed once).  A cluster
    serves one :meth:`run_workload`.
    """

    def __init__(self, protocol: str, config: Optional[ClusterConfig] = None,
                 workload: Optional[WorkloadParameters] = None, *,
                 checker: Optional[object] = None,
                 workload_clients: bool = True,
                 trace: bool = False) -> None:
        self.protocol = protocol
        self.config = config = config or ClusterConfig()
        self.workload = workload = workload or DEFAULT_WORKLOAD
        spec = resolve_spec(protocol)
        if "tcp" not in spec.transports:
            raise ConfigurationError(
                f"protocol {protocol!r} does not support the 'tcp' "
                f"transport; supported: {list(spec.transports)}")
        self.roles = default_placement(config,
                                       workload_clients=workload_clients)
        #: ObservationChunk frames folded into the checker so far.
        self.chunks_ingested = 0
        #: Run-wide timeline: every worker ships its drained event stream
        #: over the control plane and the parent assembles one global view.
        self.trace_assembler: Optional[TraceAssembler] = (
            TraceAssembler() if trace else None)
        #: Parent-local view: no servers, optional interactive clients, one
        #: TcpTransport into the same mesh.  Its metrics/checker are the
        #: run-wide aggregation target.
        self.view = RealtimeCluster(
            protocol, config, workload, checker=checker,
            workload_clients=False, transport=TcpTransport(), server_ids=(),
            trace=trace,
            trace_source="parent")
        self.clock, self.checker, self.metrics = (
            self.view.clock, self.view.checker, self.view.metrics)
        self._workers: dict[int, _Worker] = {}
        #: Set by whoever updates a worker record; :meth:`_until` sleeps on it.
        self._changed = asyncio.Event()
        self._worker_overhead = OverheadCounters()
        self._failure: Optional[BaseException] = None
        self._control: Optional[asyncio.base_events.Server] = None
        #: Every open control connection: its handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._started = False
        self._ran = False
        self._closed = False

    # ------------------------------------------------------------- facade API
    @property
    def worker_count(self) -> int:
        """Number of worker OS processes this cluster spawns."""
        return len(self.roles)

    def add_client(self, dc: int, index: int, *, generator=None):
        """Attach a parent-local interactive client (before :meth:`start`)."""
        if self._started:
            raise RuntimeBackendError(
                "interactive clients must be added before the process "
                "cluster starts (the peer table is distributed once)")
        placement = (dc, index)
        if any(placement in role.client_ids for role in self.roles):
            # A duplicate address would make servers route the worker
            # client's replies to the parent — timeouts there, a polluted
            # history here.
            raise ConfigurationError(
                f"client (dc={dc}, index={index}) is already hosted by a "
                f"worker process; pick an index >= "
                f"{self.config.clients_per_dc}")
        return self.view.add_client(dc, index, generator=generator)

    def first_failure(self) -> Optional[BaseException]:
        failure = self.view.first_failure()
        return failure if failure is not None else self._failure

    def overhead(self) -> OverheadCounters:
        """Merged overhead counters across every worker's servers."""
        overhead = OverheadCounters()
        overhead.merge(self._worker_overhead)
        overhead.merge(self.view.overhead())
        return overhead

    def collect_trace(self) -> Optional[TraceAssembler]:
        """The run-wide timeline assembler (None when tracing is off).

        Folds in any not-yet-drained parent-local events first; worker
        streams arrive via :meth:`_merge_result` as results come back.
        """
        assembler = self.trace_assembler
        if assembler is not None and self.view.trace_bus is not None:
            assembler.ingest_bus(self.view.trace_bus)
        return assembler

    # ---------------------------------------------------------- control plane
    async def _on_worker_connection(self, reader: asyncio.StreamReader,
                                    writer: asyncio.StreamWriter) -> None:
        """Serve one control connection: keep its worker's record current."""
        task = asyncio.current_task()
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)
        worker: Optional[_Worker] = None
        gone = "closed its control connection"
        try:
            while (payload := await read_frame(reader)) is not None:
                message = decode(payload)
                if worker is None:
                    if not isinstance(message, WorkerHello):
                        raise RuntimeBackendError(
                            f"control connection opened with "
                            f"{type(message).__name__}, expected WorkerHello")
                    worker = self._workers[message.worker_id]
                    worker.writer, worker.hello = writer, message
                elif isinstance(message, ObservationChunk):
                    # Folded in on arrival: ingestion (and a streaming
                    # checker's window verification) overlaps the run, and
                    # the connection's FIFO puts every chunk ahead of the
                    # worker's WorkerResult.
                    self.checker.record_history(
                        message.puts, message.rots,
                        source=f"worker-{message.worker_id}")
                    self.chunks_ingested += 1
                    continue
                elif isinstance(message, WorkerReady):
                    worker.ready = True
                elif isinstance(message, WorkerResult):
                    self._merge_result(message)
                    worker.result = True
                elif isinstance(message, WorkerError):
                    gone = f"failed\n{message.message}"
                    break
                else:
                    raise RuntimeBackendError(
                        f"unexpected control message "
                        f"{type(message).__name__}")
                self._changed.set()
        except Exception as exc:  # noqa: BLE001 - becomes the worker's fate
            gone = f"lost its control connection: {exc!r}"
        finally:
            writer.close()
            if worker is not None and worker.gone is None:
                worker.gone = gone
            self._changed.set()

    def _on_exit(self, worker: _Worker) -> None:
        """``process.sentinel`` is readable: the worker process has exited.

        Only news for a worker that never connected; one that did is gone
        when its connection says so, after its last frame.
        """
        asyncio.get_running_loop().remove_reader(worker.process.sentinel)
        if worker.writer is None and worker.gone is None:
            worker.gone = "exited before it connected"
            self._changed.set()

    def _gone_error(self, worker: _Worker) -> RuntimeBackendError:
        process = worker.process
        if process.exitcode is None:
            # EOF precedes the exit status by the rest of the teardown.
            process.join(0.2)
        state = ("still running" if process.exitcode is None
                 else f"exit code {process.exitcode}")
        head, _, detail = worker.gone.partition("\n")
        return RuntimeBackendError(
            f"{worker} {head} ({state})" + (f"\n{detail}" if detail else ""))

    async def _until(self, workers: Iterable[_Worker],
                     reached: Callable[[_Worker], object], what: str,
                     timeout: float) -> None:
        """Wait until every worker of ``workers`` has ``reached`` its state.

        Raises :class:`RuntimeBackendError` — recorded as the cluster's
        first failure — as soon as *any* worker of the cluster is gone
        without having reached it (it never will), or at ``timeout``.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        failure: Optional[RuntimeBackendError] = None
        while failure is None:
            lost = [worker for worker in self._workers.values()
                    if worker.gone is not None and not reached(worker)]
            waiting = [worker for worker in workers if not reached(worker)]
            if lost:
                failure = self._gone_error(lost[0])
            elif not waiting:
                return
            else:
                self._changed.clear()
                try:
                    await asyncio.wait_for(self._changed.wait(),
                                           deadline - loop.time())
                except asyncio.TimeoutError:
                    failure = RuntimeBackendError(
                        f"timed out after {timeout}s waiting for {what} from "
                        + ", ".join(str(worker) for worker in waiting))
        self._failure = self._failure or failure
        raise failure

    def _send(self, workers: Iterable[_Worker], message: object) -> None:
        """Write ``message`` to every connected, living worker of the set."""
        data = frame(encode(message))
        for worker in workers:
            if worker.writer is not None and worker.gone is None:
                worker.writer.write(data)

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Spawn the workers, distribute the peer table, start everything."""
        if self._closed:
            raise RuntimeBackendError("cluster is closed")
        if self._started:
            return
        self._started = True
        wall_epoch = time.time()
        self._control = await asyncio.start_server(
            self._on_worker_connection, "127.0.0.1", 0)
        control_port = self._control.sockets[0].getsockname()[1]
        await self.view.transport.start()

        loop = asyncio.get_running_loop()
        context = multiprocessing.get_context("spawn")
        for role in self.roles:
            spec = WorkerSpec(
                protocol=self.protocol, config=self.config,
                workload=self.workload, role=role,
                control_host="127.0.0.1", control_port=control_port,
                record_history=self.checker is not None,
                trace=self.trace_assembler is not None)
            process = context.Process(target=worker_entry, args=(spec,),
                                      daemon=True)
            process.start()
            worker = self._workers[role.worker_id] = _Worker(role, process)
            loop.add_reader(process.sentinel, self._on_exit, worker)
        everyone = list(self._workers.values())
        await self._until(everyone, lambda worker: worker.hello,
                          "WorkerHello", WORKER_STARTUP_TIMEOUT_SECONDS)

        entries: list[PeerEntry] = []
        for worker in everyone:
            hello, role = worker.hello, worker.role
            for dc, partition in role.server_ids:
                entries.append(PeerEntry(ServerAddr(dc, partition),
                                         hello.host, hello.port))
            for dc, index in role.client_ids:
                entries.append(PeerEntry(ClientAddr(client_node_id(dc, index)),
                                         hello.host, hello.port))
        parent_transport = self.view.transport
        for addr in parent_transport.local_addrs():
            entries.append(PeerEntry(addr, parent_transport.host,
                                     parent_transport.port))
        parent_transport.set_peers({entry.addr: (entry.host, entry.port)
                                    for entry in entries})
        self._send(everyone, PeerTable(tuple(entries), wall_epoch))
        await self._until(everyone, lambda worker: worker.ready,
                          "WorkerReady", WORKER_STARTUP_TIMEOUT_SECONDS)
        await self.view.start(wall_epoch=wall_epoch)

    async def run_workload(self, duration_seconds: float) -> None:
        """Run every client worker's closed loops and merge their results."""
        if not self._started or self._closed:
            raise RuntimeBackendError("cluster is not running")
        if self._ran:
            raise RuntimeBackendError(
                "this process cluster has already run its workload (workers "
                "report once; build a new cluster for another run)")
        client_workers = [worker for worker in self._workers.values()
                          if worker.role.client_ids]
        if not client_workers:
            raise RuntimeBackendError(
                "this process cluster has no workload client workers "
                "(constructed with workload_clients=False)")
        self._ran = True
        self._send(client_workers, StartRun(duration_seconds))
        # A server worker has no result before shutdown, so one that is gone
        # fails the wait, by name, the moment its connection says so.
        await self._until(client_workers, lambda worker: worker.result,
                          "WorkerResult",
                          duration_seconds + OPERATION_TIMEOUT_SECONDS
                          + WORKER_SHUTDOWN_TIMEOUT_SECONDS)

    def _merge_result(self, result: WorkerResult) -> None:
        self.metrics.absorb(
            rot_samples=result.rot_samples, put_samples=result.put_samples,
            rots_issued=result.rots_issued, puts_issued=result.puts_issued)
        self._worker_overhead.merge(result.overhead)
        if self.trace_assembler is not None and (
                result.events or result.events_dropped):
            self.trace_assembler.add_events(
                result.events, source=f"worker-{result.worker_id}",
                dropped=result.events_dropped)

    async def stop(self) -> None:
        """Shut every worker down gracefully, then the parent; idempotent."""
        if self._closed:
            return
        self._closed = True
        everyone = list(self._workers.values())
        try:
            self._send(everyone, Shutdown())
            for worker in everyone:
                if worker.writer is None:
                    # Never connected: cannot be told, has nothing to report.
                    worker.process.terminate()
            try:
                await self._until(
                    everyone, lambda worker: worker.result or worker.gone,
                    "WorkerResult", WORKER_SHUTDOWN_TIMEOUT_SECONDS)
            except RuntimeBackendError:
                pass  # recorded; the teardown below must still run
            for worker in everyone:
                if not worker.result and worker.gone is not None:
                    self._failure = self._failure or self._gone_error(worker)
        finally:
            loop = asyncio.get_running_loop()
            for worker in everyone:
                loop.remove_reader(worker.process.sentinel)
            if self._control is not None:
                self._control.close()
            # Closing a connection feeds its handler EOF: each returns on its
            # own, none is cancelled (3.11's stream protocol logs a handler
            # that ends cancelled as an error).
            connections = dict(self._connections)
            for writer in connections.values():
                writer.close()
            await asyncio.gather(*connections, return_exceptions=True)
            if self._control is not None:
                await self._control.wait_closed()
            await self.view.stop()
            await self._join_processes()

    async def _join_processes(self) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + WORKER_SHUTDOWN_TIMEOUT_SECONDS
        for worker in self._workers.values():
            process = worker.process
            while process.is_alive() and loop.time() < deadline:
                await asyncio.sleep(0.02)
            if process.is_alive():
                process.terminate()
                await asyncio.sleep(0.05)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
            process.join(timeout=1.0)


__all__ = [
    "OBSERVATION_FLUSH_SECONDS",
    "ObservationChunk",
    "PeerEntry",
    "PeerTable",
    "ProcessCluster",
    "Shutdown",
    "StartRun",
    "WorkerError",
    "WorkerHello",
    "WorkerReady",
    "WorkerResult",
    "WorkerRole",
    "WorkerSpec",
    "default_placement",
    "worker_entry",
]

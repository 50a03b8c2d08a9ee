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
    parent -> worker   StartRun(duration_seconds)           begin closed loops
    worker -> parent   WorkerResult(...)                    measurements +
                                                            observation log
    parent -> worker   Shutdown()                           graceful exit
    worker -> parent   WorkerError(worker_id, message)      on any failure

Client workers ship their latency samples *and* the causal-consistency
observation log (:class:`~repro.causal.checker.RecordedPut` /
:class:`~repro.causal.checker.RecordedRot`) back over the wire; the parent
folds every worker's log into one checker and validates the whole multi-
process history.  Server workers ship their protocol-overhead counters at
shutdown.

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
from typing import Optional

from repro.causal.checker import RecordedPut, RecordedRead, RecordedRot
from repro.causal.streaming import ObservationBuffer, StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.core.common.kernel import (
    Addr,
    ClientAddr,
    ServerAddr,
    client_node_id,
)
from repro.core.registry import resolve_spec
from repro.errors import (
    ConfigurationError,
    RuntimeBackendError,
    WireFormatError,
)
from repro.metrics.overheads import OverheadCounters
from repro.obs.events import TraceEvent
from repro.obs.trace import TraceAssembler
from repro.runtime.cluster import RealtimeCluster, drive_closed_loops
from repro.runtime.nodes import OPERATION_TIMEOUT_SECONDS
from repro.runtime.transport import TcpTransport
from repro.wire.batch import decode_record_batch, encode_record_batch
from repro.wire.codec import decode, encode, register_wire_type
from repro.wire.framing import read_frame, write_frame
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters

#: Bound on worker start-up (spawn + import + bind + hello) and handshakes.
WORKER_STARTUP_TIMEOUT_SECONDS = 60.0
#: Bound on a worker's shutdown-time result + exit.
WORKER_SHUTDOWN_TIMEOUT_SECONDS = 30.0
#: Drain interval of a streaming worker's observation flusher: worker-side
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
    enable_checker: bool
    #: Enable the repro.obs event bus in the worker.
    trace: bool = False
    #: Ship the observation log incrementally as ObservationChunk frames
    #: during the run (the parent feeds them into its streaming checker)
    #: instead of one giant WorkerResult at the end.
    stream_observations: bool = False


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
    """Worker -> parent: measurements and the observation log.

    ``puts``/``rots`` is the worker-local causal-consistency observation log
    (empty for server-only workers); ``overhead`` the merged counters of the
    worker's partition servers (empty for client-only workers).
    """

    worker_id: int
    rot_samples: tuple[float, ...]
    put_samples: tuple[float, ...]
    rots_issued: int
    puts_issued: int
    puts: tuple[RecordedPut, ...]
    rots: tuple[RecordedRot, ...]
    overhead: OverheadCounters
    #: Drained repro.obs trace events (empty when tracing is off) plus the
    #: worker bus's drop counter, so the parent's assembler can tell lost
    #: events from an idle worker.
    events: tuple[TraceEvent, ...] = ()
    events_dropped: int = 0


@dataclass(frozen=True)
class ObservationChunk:
    """Worker -> parent: one drained slice of the observation log.

    Sent during the run by streaming workers (``stream_observations``), so
    the parent's :class:`~repro.causal.streaming.StreamingChecker` verifies
    windows while traffic is still flowing and no process ever holds the
    whole history.  ``puts_blob``/``rots_blob`` are
    :func:`repro.wire.batch.encode_record_batch` encodings (a count plus
    the records row by row through their types' compiled packers, like a
    batch frame); the redundant counts let the parent detect truncated
    blobs before feeding the checker.  ``sequence`` is per-worker and
    monotonically increasing from 1.
    """

    worker_id: int
    sequence: int
    put_count: int
    rot_count: int
    puts_blob: bytes
    rots_blob: bytes


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
    puts: tuple[RecordedPut, ...] = ()
    rots: tuple[RecordedRot, ...] = ()
    if cluster.checker is not None:
        puts, rots = cluster.checker.recorded_history()
    events: tuple[TraceEvent, ...] = ()
    events_dropped = 0
    if cluster.trace_bus is not None:
        events = cluster.trace_bus.drain()
        events_dropped = cluster.trace_bus.dropped
    metrics = cluster.metrics
    return WorkerResult(
        worker_id=worker_id,
        rot_samples=metrics.rot_latencies.samples(),
        put_samples=metrics.put_latencies.samples(),
        rots_issued=metrics.rots_issued,
        puts_issued=metrics.puts_issued,
        puts=puts,
        rots=rots,
        overhead=cluster.overhead(),
        events=events,
        events_dropped=events_dropped)


async def _flush_observations(buffer: ObservationBuffer,
                              writer: asyncio.StreamWriter,
                              writer_lock: asyncio.Lock,
                              worker_id: int, sequence: int) -> int:
    """Drain ``buffer`` into one ObservationChunk frame (if non-empty)."""
    puts, rots = buffer.drain()
    if not puts and not rots:
        return sequence
    sequence += 1
    payload = encode(ObservationChunk(
        worker_id=worker_id, sequence=sequence,
        put_count=len(puts), rot_count=len(rots),
        puts_blob=encode_record_batch(puts),
        rots_blob=encode_record_batch(rots)))
    async with writer_lock:
        await write_frame(writer, payload)
    return sequence


async def _observation_flusher(buffer: ObservationBuffer,
                               writer: asyncio.StreamWriter,
                               writer_lock: asyncio.Lock,
                               worker_id: int,
                               stop: asyncio.Event) -> None:
    """Periodically ship the observation log while closed loops run.

    Stops via the event rather than cancellation so a flush is never
    interrupted mid-frame (a half-written chunk would corrupt the control
    stream); the final iteration after ``stop`` drains whatever the last
    interval accumulated.
    """
    sequence = 0
    while True:
        stopping = stop.is_set()
        sequence = await _flush_observations(buffer, writer, writer_lock,
                                             worker_id, sequence)
        if stopping:
            return
        try:
            await asyncio.wait_for(stop.wait(), OBSERVATION_FLUSH_SECONDS)
        except asyncio.TimeoutError:
            pass


async def _worker_main(spec: WorkerSpec) -> None:
    role = spec.role
    transport = TcpTransport()
    await transport.start()
    wants_checker = spec.enable_checker and bool(role.client_ids)
    observations: Optional[ObservationBuffer] = (
        ObservationBuffer()
        if wants_checker and spec.stream_observations else None)
    cluster = RealtimeCluster(
        spec.protocol, spec.config, spec.workload,
        enable_checker=wants_checker, checker=observations,
        workload_clients=False, transport=transport,
        server_ids=role.server_ids,
        trace=spec.trace, trace_source=f"worker-{role.worker_id}")
    for dc, index in role.client_ids:
        cluster.add_workload_client(dc, index)

    reader, writer = await asyncio.open_connection(
        spec.control_host, spec.control_port)
    writer_lock = asyncio.Lock()
    result_sent = False
    try:
        await write_frame(writer, encode(WorkerHello(
            role.worker_id, transport.host, transport.port)))
        while True:
            payload = await read_frame(reader)
            if payload is None:
                break  # parent vanished; exit quietly
            message = decode(payload)
            if isinstance(message, PeerTable):
                transport.set_peers({entry.addr: (entry.host, entry.port)
                                     for entry in message.entries})
                await cluster.start(wall_epoch=message.wall_epoch)
                async with writer_lock:
                    await write_frame(writer,
                                      encode(WorkerReady(role.worker_id)))
            elif isinstance(message, StartRun):
                if cluster.clients:
                    # Re-anchor the warmup window at traffic start: the
                    # shared epoch began at spawn time, long before the
                    # first operation.
                    cluster.metrics.warmup_seconds = (
                        cluster.clock.now + spec.config.warmup_seconds)
                    if observations is not None:
                        stop_flusher = asyncio.Event()
                        flusher = asyncio.ensure_future(_observation_flusher(
                            observations, writer, writer_lock,
                            role.worker_id, stop_flusher))
                        flusher_error: Optional[BaseException] = None
                        try:
                            await drive_closed_loops(
                                cluster, message.duration_seconds)
                        finally:
                            stop_flusher.set()
                            # Swallowing into a variable keeps a run failure
                            # (the more fundamental error) from being
                            # replaced by a flusher failure mid-finally.
                            try:
                                await flusher
                            except Exception as exc:  # noqa: BLE001
                                flusher_error = exc
                        if flusher_error is not None:
                            raise flusher_error
                    else:
                        await drive_closed_loops(cluster,
                                                 message.duration_seconds)
                    async with writer_lock:
                        await write_frame(writer, encode(
                            _collect_result(cluster, role.worker_id)))
                    result_sent = True
            elif isinstance(message, Shutdown):
                await cluster.stop()
                if not result_sent:
                    async with writer_lock:
                        await write_frame(writer, encode(
                            _collect_result(cluster, role.worker_id)))
                    result_sent = True
                break
            else:
                raise RuntimeBackendError(
                    f"worker {role.worker_id} received an unexpected "
                    f"control message {type(message).__name__}")
    except Exception:  # noqa: BLE001 - reported to the parent, then re-raised
        try:
            async with writer_lock:
                await write_frame(writer, encode(WorkerError(
                    role.worker_id, traceback.format_exc())))
        except (OSError, RuntimeError):
            pass
        raise
    finally:
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

class _ConnectionClosed:
    """Queue sentinel: the worker's control connection ended."""

    __slots__ = ("error",)

    def __init__(self, error: Optional[BaseException]) -> None:
        self.error = error


class ProcessCluster:
    """A realtime cluster whose partition servers are separate OS processes.

    Facade-compatible with :class:`~repro.runtime.cluster.RealtimeCluster`
    (``clock`` / ``checker`` / ``metrics`` / ``add_client`` /
    ``first_failure`` / ``start`` / ``stop``), so
    :class:`repro.api.CausalStore` and the experiment runner drive either
    interchangeably.  Interactive clients added via :meth:`add_client` live
    in the parent process and must be added *before* :meth:`start` (the peer
    table is distributed once).
    """

    def __init__(self, protocol: str, config: Optional[ClusterConfig] = None,
                 workload: Optional[WorkloadParameters] = None, *,
                 enable_checker: bool = False,
                 checker: object = None,
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
        # ``checker`` selects the run-wide validation strategy: None or
        # "monolithic" buffers every worker's history in one
        # CausalConsistencyChecker at shutdown; "streaming" (or an explicit
        # StreamingChecker instance) makes workers ship ObservationChunk
        # frames during the run and the parent verify GSS windows on the
        # fly — bounded memory on both sides.
        if isinstance(checker, str):
            if checker not in ("monolithic", "streaming"):
                raise ConfigurationError(
                    f"unknown checker {checker!r}; known: "
                    f"['monolithic', 'streaming']")
            checker = StreamingChecker() if checker == "streaming" else None
        self._checker_instance = checker
        enable_checker = enable_checker or checker is not None
        self._enable_checker = enable_checker
        self.streaming_observations = isinstance(checker, StreamingChecker)
        #: ObservationChunk frames folded into the streaming checker so far.
        self.chunks_ingested = 0
        self._trace = trace
        #: Run-wide timeline: every worker ships its drained event stream
        #: over the control plane and the parent assembles one global view.
        self.trace_assembler: Optional[TraceAssembler] = (
            TraceAssembler() if trace else None)
        #: Parent-local view: no servers, optional interactive clients, one
        #: TcpTransport into the same mesh.  Its metrics/checker are the
        #: run-wide aggregation target.
        self.view = RealtimeCluster(
            protocol, config, workload, enable_checker=enable_checker,
            checker=self._checker_instance,
            workload_clients=False, transport=TcpTransport(),
            server_ids=(), trace=trace, trace_source="parent")
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._queues: dict[int, asyncio.Queue] = {}
        self._merged: set[int] = set()
        self._worker_overhead = OverheadCounters()
        self._failure: Optional[BaseException] = None
        self._control: Optional[asyncio.base_events.Server] = None
        self._control_tasks: set[asyncio.Task] = set()
        self._wall_epoch: Optional[float] = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------- facade API
    @property
    def clock(self):
        return self.view.clock

    @property
    def checker(self):
        return self.view.checker

    @property
    def metrics(self):
        return self.view.metrics

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
    def _queue_for(self, worker_id: int) -> asyncio.Queue:
        queue = self._queues.get(worker_id)
        if queue is None:
            queue = self._queues[worker_id] = asyncio.Queue()
        return queue

    async def _on_worker_connection(self, reader: asyncio.StreamReader,
                                    writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._control_tasks.add(task)
            task.add_done_callback(self._control_tasks.discard)
        worker_id: Optional[int] = None
        error: Optional[BaseException] = None
        try:
            while True:
                payload = await read_frame(reader)
                if payload is None:
                    break
                message = decode(payload)
                if worker_id is None:
                    if not isinstance(message, WorkerHello):
                        raise RuntimeBackendError(
                            f"control connection opened with "
                            f"{type(message).__name__}, expected WorkerHello")
                    worker_id = message.worker_id
                    self._writers[worker_id] = writer
                if isinstance(message, ObservationChunk):
                    # Fed straight into the streaming checker instead of the
                    # queue: ingestion (and window verification) overlaps the
                    # run, and the per-connection FIFO guarantees every chunk
                    # lands before the worker's final WorkerResult.
                    self._ingest_chunk(message)
                    continue
                self._queue_for(worker_id).put_nowait(message)
        except asyncio.CancelledError:
            return
        except Exception as exc:  # noqa: BLE001 - surfaced via the queue
            error = exc
        finally:
            if worker_id is not None:
                self._queue_for(worker_id).put_nowait(_ConnectionClosed(error))

    def _ingest_chunk(self, chunk: ObservationChunk) -> None:
        """Fold one streamed observation chunk into the streaming checker."""
        checker = self.view.checker
        if not isinstance(checker, StreamingChecker):
            raise RuntimeBackendError(
                f"worker {chunk.worker_id} streamed an ObservationChunk but "
                f"the parent checker is "
                f"{type(checker).__name__ if checker else 'disabled'}")
        puts = decode_record_batch(chunk.puts_blob)
        rots = decode_record_batch(chunk.rots_blob)
        if len(puts) != chunk.put_count or len(rots) != chunk.rot_count:
            raise WireFormatError(
                f"observation chunk {chunk.sequence} from worker "
                f"{chunk.worker_id} announced {chunk.put_count} puts / "
                f"{chunk.rot_count} rots but carries {len(puts)} / "
                f"{len(rots)}")
        checker.record_history(puts, rots,
                               source=f"worker-{chunk.worker_id}")
        self.chunks_ingested += 1

    async def _expect(self, worker_id: int, expected: type, timeout: float):
        """The next control message from ``worker_id``, of the given type.

        Fails fast when the worker process died without anything left in its
        queue (a crash before the hello would otherwise burn the whole
        timeout).
        """
        queue = self._queue_for(worker_id)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        death_observed = False
        while True:
            try:
                message = await asyncio.wait_for(
                    queue.get(), min(0.2, max(deadline - loop.time(), 0.01)))
                break
            except asyncio.TimeoutError:
                process = self._processes.get(worker_id)
                dead = process is not None and not process.is_alive()
                if dead and queue.empty():
                    # One extra poll after first observing the death: a
                    # gracefully exiting worker's final frame may still sit
                    # in the socket buffer, waiting for the connection
                    # reader task to be scheduled.
                    if not death_observed:
                        death_observed = True
                        continue
                    raise RuntimeBackendError(
                        f"worker {worker_id} exited with code "
                        f"{process.exitcode} before sending "
                        f"{expected.__name__}") from None
                if loop.time() >= deadline:
                    state = (f"exited with code {process.exitcode}"
                             if dead else "still running")
                    raise RuntimeBackendError(
                        f"timed out after {timeout}s waiting for "
                        f"{expected.__name__} from worker {worker_id} "
                        f"(process {state})") from None
        if isinstance(message, WorkerError):
            failure = RuntimeBackendError(
                f"worker {worker_id} failed:\n{message.message}")
            self._failure = self._failure or failure
            raise failure
        if isinstance(message, _ConnectionClosed):
            raise RuntimeBackendError(
                f"worker {worker_id} closed its control connection while "
                f"{expected.__name__} was expected"
                + (f" ({message.error})" if message.error else ""))
        if not isinstance(message, expected):
            raise RuntimeBackendError(
                f"expected {expected.__name__} from worker {worker_id}, "
                f"got {type(message).__name__}")
        return message

    async def _broadcast(self, message: object) -> None:
        """Best-effort send to every worker.

        A single dead control connection must not stop the remaining
        workers from receiving the message; the per-worker ``_expect`` calls
        surface the dead one with its exit state.
        """
        payload = encode(message)
        for worker_id, writer in self._writers.items():
            try:
                await write_frame(writer, payload)
            except (OSError, RuntimeError) as exc:
                if self._failure is None:
                    self._failure = RuntimeBackendError(
                        f"control connection to worker {worker_id} "
                        f"failed: {exc}")

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Spawn the workers, distribute the peer table, start everything."""
        if self._closed:
            raise RuntimeBackendError("cluster is closed")
        if self._started:
            return
        self._started = True
        self._wall_epoch = time.time()
        self._control = await asyncio.start_server(
            self._on_worker_connection, "127.0.0.1", 0)
        control_port = self._control.sockets[0].getsockname()[1]
        await self.view.transport.start()

        context = multiprocessing.get_context("spawn")
        for role in self.roles:
            spec = WorkerSpec(
                protocol=self.protocol, config=self.config,
                workload=self.workload, role=role,
                control_host="127.0.0.1", control_port=control_port,
                enable_checker=self._enable_checker,
                trace=self._trace,
                stream_observations=self.streaming_observations)
            process = context.Process(target=worker_entry, args=(spec,),
                                      daemon=True)
            process.start()
            self._processes[role.worker_id] = process

        hellos = {role.worker_id: await self._expect(
                      role.worker_id, WorkerHello,
                      WORKER_STARTUP_TIMEOUT_SECONDS)
                  for role in self.roles}

        entries: list[PeerEntry] = []
        for role in self.roles:
            hello = hellos[role.worker_id]
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
        table = PeerTable(entries=tuple(entries), wall_epoch=self._wall_epoch)
        parent_transport.set_peers({entry.addr: (entry.host, entry.port)
                                    for entry in entries})
        await self._broadcast(table)
        for role in self.roles:
            await self._expect(role.worker_id, WorkerReady,
                               WORKER_STARTUP_TIMEOUT_SECONDS)
        await self.view.start(wall_epoch=self._wall_epoch)

    async def run_workload(self, duration_seconds: float) -> None:
        """Run every client worker's closed loops and merge their results."""
        if not self._started or self._closed:
            raise RuntimeBackendError("cluster is not running")
        client_workers = [role for role in self.roles if role.client_ids]
        if not client_workers:
            raise RuntimeBackendError(
                "this process cluster has no workload client workers "
                "(constructed with workload_clients=False)")
        await self._broadcast(StartRun(duration_seconds))
        timeout = (duration_seconds + OPERATION_TIMEOUT_SECONDS
                   + WORKER_SHUTDOWN_TIMEOUT_SECONDS)
        for role in client_workers:
            result = await self._expect(role.worker_id, WorkerResult, timeout)
            self._merge_result(result)

    def _merge_result(self, result: WorkerResult) -> None:
        if result.worker_id in self._merged:
            return
        self._merged.add(result.worker_id)
        self.view.metrics.absorb(
            rot_samples=result.rot_samples, put_samples=result.put_samples,
            rots_issued=result.rots_issued, puts_issued=result.puts_issued)
        self._worker_overhead.merge(result.overhead)
        if self.view.checker is not None:
            self.view.checker.record_history(result.puts, result.rots)
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
        try:
            if self._writers:
                await self._broadcast(Shutdown())
                for role in self.roles:
                    if role.worker_id in self._merged:
                        continue
                    if role.worker_id not in self._writers:
                        continue
                    try:
                        result = await self._expect(
                            role.worker_id, WorkerResult,
                            WORKER_SHUTDOWN_TIMEOUT_SECONDS)
                    except RuntimeBackendError as exc:
                        self._failure = self._failure or exc
                        continue
                    self._merge_result(result)
        finally:
            for writer in self._writers.values():
                writer.close()
            if self._control is not None:
                self._control.close()
                await self._control.wait_closed()
            for task in list(self._control_tasks):
                task.cancel()
            await self.view.stop()
            await self._join_processes()

    async def _join_processes(self) -> None:
        deadline = (asyncio.get_running_loop().time()
                    + WORKER_SHUTDOWN_TIMEOUT_SECONDS)
        for process in self._processes.values():
            while process.is_alive() and \
                    asyncio.get_running_loop().time() < deadline:
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

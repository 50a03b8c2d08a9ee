"""Realtime workloads: deployments, closed loops and measurement windows.

Everything here drives ``repro.runtime`` through its public surface: a
:class:`Deployment` is one :class:`~repro.runtime.cluster.RealtimeCluster`
(inproc) or a client-side and a server-side cluster joined by two
:class:`~repro.runtime.transport.TcpTransport` s in the same process (tcp),
and a window is "swap in a fresh ``MetricsRegistry``, let the loops run,
sample the host-speed probe".  Windows last wall-clock seconds; what happens
in them is timed on the process's CPU clock (see ``host.py``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Optional

from layers.host import HostSpeedProbe, cpu_clock
from layers.workloads import RtWorkload

from repro.metrics.collectors import MetricsRegistry
from repro.runtime.cluster import RealtimeCluster
from repro.runtime.transport import InprocTransport, TcpTransport, Transport

#: How long stopped loops may take to finish their in-flight operation
#: before the operation counts as stuck.
STOP_GRACE_SECONDS = 5.0

#: Builds the transport of one side; the traced run passes timing subclasses.
TransportFactory = Callable[[str], Transport]


def plain_transport(kind: str) -> Transport:
    """The transports of the timed and validated runs."""
    if kind == "inproc":
        return InprocTransport()
    # batch=True: the default FlushPolicy, as ProcessCluster deployments use.
    return TcpTransport(batch=True)


class CpuClockMetrics:
    """``client.metrics`` of one realtime client (the three calls a client
    makes on it): forwards to ``registry`` with the operation's issue and
    completion read from the CPU clock instead of the cluster's wall clock.
    A client has one operation in flight, so one stamp is enough."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._issued_at = 0.0

    def note_issue(self, is_put: bool) -> None:
        self._issued_at = cpu_clock()
        self.registry.note_issue(is_put)

    def record_rot(self, started_at: float, completed_at: float) -> None:
        self.registry.record_rot(self._issued_at, cpu_clock())

    def record_put(self, started_at: float, completed_at: float) -> None:
        self.registry.record_put(self._issued_at, cpu_clock())


class Deployment:
    """The cluster(s) of one realtime run, started and stopped together."""

    def __init__(self, workload: RtWorkload, seed: int, *,
                 make_transport: TransportFactory = plain_transport,
                 obs_trace: bool = False,
                 checker: Optional[object] = None) -> None:
        config, parameters = workload.config(seed), workload.parameters()
        self.workload = workload
        self.config = config
        if workload.transport == "inproc":
            cluster = RealtimeCluster(
                workload.protocol, config, parameters, checker=checker,
                transport=make_transport("inproc"), trace=obs_trace)
            self.client_side = self.server_side = cluster
            self.clusters = [cluster]
        else:
            self.server_side = RealtimeCluster(
                workload.protocol, config, parameters, workload_clients=False,
                transport=make_transport("tcp"), trace=obs_trace,
                trace_source="servers")
            self.client_side = RealtimeCluster(
                workload.protocol, config, parameters, checker=checker,
                transport=make_transport("tcp"), server_ids=(),
                trace=obs_trace, trace_source="clients")
            self.clusters = [self.server_side, self.client_side]
        self.clients = self.client_side.clients
        for client in self.clients:
            client.metrics = CpuClockMetrics(client.metrics)
        self.servers = list(self.server_side.servers.values())

    async def start(self) -> None:
        # One epoch for both sides, so event timestamps of the validated run
        # (visibility lag spans both buses) share an origin.
        epoch = time.time()
        for cluster in self.clusters:
            await cluster.start(wall_epoch=epoch)
        if len(self.clusters) == 2:
            servers, clients = (self.server_side.transport,
                                self.client_side.transport)
            clients.set_peers({addr: (servers.host, servers.port)
                               for addr in servers.local_addrs()})
            servers.set_peers({addr: (clients.host, clients.port)
                               for addr in clients.local_addrs()})

    async def stop(self) -> None:
        for cluster in reversed(self.clusters):
            await cluster.stop()

    def first_failure(self) -> Optional[BaseException]:
        for cluster in self.clusters:
            failure = cluster.first_failure()
            if failure is not None:
                return failure
        return None


class ClosedLoops:
    """One closed loop per client, individually stoppable.

    ``failed`` counts operations that errored, timed out or were still in
    flight when the grace period ran out; a loop that dies takes exactly one
    operation with it.
    """

    def __init__(self) -> None:
        self._running: dict[object, tuple[asyncio.Event, asyncio.Task]] = {}
        self.failed = 0
        self.errors: list[str] = []

    def start(self, clients) -> None:
        for client in clients:
            stop = asyncio.Event()
            task = asyncio.ensure_future(client.run_closed_loop(stop))
            self._running[client] = (stop, task)

    async def stop(self, clients) -> None:
        """Stop the loops of ``clients`` and wait for their in-flight op."""
        entries = [self._running.pop(client) for client in clients
                   if client in self._running]
        for stop, _task in entries:
            stop.set()
        tasks = [task for _stop, task in entries]
        if not tasks:
            return
        done, stuck = await asyncio.wait(tasks, timeout=STOP_GRACE_SECONDS)
        for task in stuck:
            task.cancel()
        if stuck:
            await asyncio.gather(*stuck, return_exceptions=True)
            self.failed += len(stuck)
            self.errors.append(f"{len(stuck)} operation(s) stuck at stop")
        for task in done:
            error = task.exception()
            if error is not None:
                self.failed += 1
                self.errors.append(f"{type(error).__name__}: {error}")


@dataclass
class Window:
    """What one measurement window saw."""

    seconds: float  # on the CPU clock
    wall_seconds: float
    registry: MetricsRegistry
    probe: HostSpeedProbe

    @property
    def ops(self) -> int:
        return self.registry.rots_completed + self.registry.puts_completed

    def summary(self) -> dict[str, float]:
        """Raw numbers of the window plus its host-speed index."""
        rot = self.registry.rot_latencies.summary()
        put = self.registry.put_latencies.summary()
        return {
            "seconds": self.seconds,
            "wall_seconds": self.wall_seconds,
            "ops": self.ops,
            "throughput_ops_s": self.ops / self.seconds,
            "rot_samples": rot.count, "rot_p50_ms": rot.p50_ms,
            "rot_p99_ms": rot.p99_ms,
            "put_samples": put.count, "put_p50_ms": put.p50_ms,
            "put_p99_ms": put.p99_ms,
            "host_speed_index": self.probe.index(),
            "spin_samples": len(self.probe.samples),
        }


async def measure_window(clients, seconds: float) -> Window:
    """Point ``clients`` at a fresh registry and let ``seconds`` pass."""
    registry = MetricsRegistry()
    for client in clients:
        client.metrics.registry = registry
    probe = HostSpeedProbe()
    started, wall_started = cpu_clock(), time.perf_counter()
    await probe.run_for(seconds)
    return Window(cpu_clock() - started, time.perf_counter() - wall_started,
                  registry, probe)


async def measure_windows(clients, seconds: float,
                          chunk_seconds: float) -> list[Window]:
    """``seconds`` as back-to-back windows of about ``chunk_seconds`` each,
    every one with its own registry and its own host-speed index."""
    count = max(1, round(seconds / chunk_seconds))
    return [await measure_window(clients, seconds / count)
            for _ in range(count)]


def idle_clients(deployment: Deployment, per_dc: int) -> list:
    """The first ``per_dc`` clients of every DC."""
    chosen = []
    for dc in range(deployment.config.num_dcs):
        chosen.extend(deployment.client_side.clients_in_dc(dc)[:per_dc])
    return chosen

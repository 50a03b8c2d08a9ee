"""Builds a simulated cluster for one experiment run.

The builder instantiates the simulator, the network, one partition server per
(DC, partition) pair hosting the chosen protocol's kernel, preloads the
keyspace (the paper preloads 1M keys per partition before measuring) and
creates the closed-loop clients with independently seeded workload
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.causal.streaming import require_recorder
from repro.cluster.config import ClusterConfig
from repro.cluster.seeding import node_rng, preload_initial_keyspace
from repro.cluster.topology import ClusterTopology
from repro.core.registry import resolve_spec
from repro.errors import ConfigurationError
from repro.metrics.collectors import MetricsRegistry
from repro.obs.bus import EventBus
from repro.sim.drivers import BaseClient, PartitionServer
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workload.generator import WorkloadGenerator
from repro.workload.parameters import WorkloadParameters


@dataclass
class BuiltCluster:
    """Everything needed to run (and inspect) one experiment."""

    protocol: str
    config: ClusterConfig
    workload: WorkloadParameters
    sim: Simulator
    topology: ClusterTopology
    metrics: MetricsRegistry
    #: The recorder every client hands its completed operations to.
    checker: Optional[object]
    #: repro.obs event bus stamping virtual time; None unless built with
    #: ``trace=True``.
    trace_bus: Optional[EventBus] = None
    _stopped: bool = False

    def start(self) -> None:
        """Start server background tasks and client loops."""
        self._stopped = False
        for server in self.topology.all_servers():
            server.start()
        for client in self.topology.clients:
            client.start()

    def stop(self) -> None:
        """Stop clients and cancel periodic server tasks; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        for client in self.topology.clients:
            client.stop()
        for server in self.topology.all_servers():
            server.stop_background_tasks()

    # ``close`` is the lifecycle spelling the facade uses; it is the same
    # idempotent teardown.
    close = stop

    def perform(self, client: BaseClient, operation) -> tuple[object, float]:
        """Issue ``operation`` on the idle ``client`` and step the simulator
        until it completes; return its outcome and simulated seconds.

        The client's closed loop must not be running (never started, or
        stopped), so completing the operation does not issue the next one.
        """
        sim = self.sim
        started = sim.now
        client.issue(operation)
        guard = 0
        while client.operation is not None:
            if not sim.step():
                raise ConfigurationError(
                    "the simulation ran out of events before the operation "
                    "completed; this indicates a protocol bug")
            guard += 1
            if guard > 5_000_000:
                raise ConfigurationError("operation did not complete")
        return client.outcome, sim.now - started


def build_cluster(protocol: str, config: ClusterConfig,
                  workload: WorkloadParameters, *,
                  checker: Optional[object] = None,
                  trace: bool = False) -> BuiltCluster:
    """Construct a ready-to-run cluster for ``protocol``.

    Parameters
    ----------
    protocol:
        One of the registered protocol names (``"contrarian"``, ``"cure"``,
        ``"cc-lo"``).
    config:
        Cluster topology, cost model and run durations.
    workload:
        The Table-1 workload point to generate.
    checker:
        A recorder (``record_put`` / ``record_rot``) every client hands its
        completed PUTs and ROTs to — a
        :class:`~repro.causal.streaming.StreamingChecker` to validate the run,
        an :class:`~repro.causal.streaming.ObservationBuffer` to keep the
        history.  ``None`` (default) records nothing.
    trace:
        When True, attach a :class:`repro.obs.bus.EventBus` (virtual-time
        stamps) to every node and kernel; the run's event stream is exposed
        as :attr:`BuiltCluster.trace_bus`.  Tracing never perturbs the
        simulation — a traced run produces bit-identical results.
    """
    require_recorder(checker)
    spec = resolve_spec(protocol)
    sim = Simulator(seed=config.seed)
    network = Network(sim, config.latency_model)
    topology = ClusterTopology(sim, network, config)
    metrics = MetricsRegistry(warmup_seconds=config.warmup_seconds)
    trace_bus = EventBus(sim, source="sim") if trace else None

    for dc in range(config.num_dcs):
        for partition in range(config.num_partitions):
            kernel = spec.build_server_kernel(
                config, dc, partition, partitioner=topology.partitioner,
                time_source=sim)
            server = PartitionServer(topology, kernel)
            server.tracer = kernel.tracer = trace_bus
            topology.add_server(server)

    preload_initial_keyspace(
        ((partition, topology.server(dc, partition).store)
         for dc in range(config.num_dcs)
         for partition in range(config.num_partitions)),
        num_dcs=config.num_dcs,
        keys_per_partition=config.keys_per_partition,
        value_size=workload.value_size)

    for dc in range(config.num_dcs):
        for index in range(config.clients_per_dc):
            generator = WorkloadGenerator(
                workload, topology.partitioner, config.keys_per_partition,
                rng=node_rng(config.seed, "workload", dc, index))
            kernel, rng = spec.build_client_kernel(
                config, dc, index, partitioner=topology.partitioner)
            client = BaseClient(topology, kernel, rng, generator, metrics,
                                checker)
            client.tracer = kernel.tracer = trace_bus
            topology.add_client(client)

    return BuiltCluster(protocol=protocol, config=config, workload=workload,
                        sim=sim, topology=topology, metrics=metrics,
                        checker=checker, trace_bus=trace_bus)


__all__ = ["BuiltCluster", "build_cluster"]

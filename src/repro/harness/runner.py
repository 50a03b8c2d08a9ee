"""Running experiments and load sweeps.

``run_experiment`` performs one run of one protocol under one workload on one
of the :data:`BACKENDS` and returns the measured
:class:`~repro.metrics.collectors.RunResult` plus the raw pieces (the
cluster and, when enabled, the consistency checker report).  Every backend
writes the same row, so simulated and wall-clock numbers sit in one table.
A checked run ends with a quiesce step after the row is recorded, so its
report also judges whether the replicas converged.
``load_sweep`` varies the number of closed-loop clients to trace one
throughput-versus-latency curve, which is how every figure in the paper's
evaluation is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.causal.checker import CheckerReport
from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.cluster.partitioning import HashPartitioner
from repro.errors import ConfigurationError
from repro.faults.controller import FaultController
from repro.faults.scenario import Scenario
from repro.harness.builder import BuiltCluster, build_cluster
from repro.harness.parallel import run_specs, sweep_specs
from repro.metrics.collectors import RunResult
from repro.metrics.overheads import OverheadCounters
from repro.obs.trace import TraceAssembler
from repro.workload.generator import Operation
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.cluster import RealtimeCluster
    from repro.runtime.process import ProcessCluster

#: Where a run is served: the discrete-event simulator (``sim``), one asyncio
#: loop in this process (``inproc``), or one OS process per partition server
#: exchanging wire-encoded frames over TCP (``tcp``).
BACKENDS = ("sim", "inproc", "tcp")


def require_backend(backend: str) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless ``backend`` is
    one of :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; known: {list(BACKENDS)}")


@dataclass
class ExperimentOutcome:
    """The full outcome of one run (result row plus inspectable state)."""

    result: RunResult
    #: A :class:`~repro.harness.builder.BuiltCluster` on ``sim``, a
    #: :class:`~repro.runtime.cluster.RealtimeCluster` on ``inproc`` and a
    #: :class:`~repro.runtime.process.ProcessCluster` on ``tcp``.
    cluster: Union[BuiltCluster, "RealtimeCluster", "ProcessCluster"]
    checker_report: Optional[CheckerReport] = None
    #: The scenario's controller (``sim`` only; None without a scenario).
    faults: Optional[FaultController] = None
    #: Assembled run-wide timeline (None unless ``trace=True``); feed to
    #: :func:`repro.obs.export.write_chrome_trace` for a Perfetto dump.
    trace: Optional[TraceAssembler] = None


def run_experiment(protocol: str,
                   config: Optional[ClusterConfig] = None,
                   workload: Optional[WorkloadParameters] = None, *,
                   backend: str = "sim",
                   checker: Optional[object] = None,
                   check_consistency: bool = False,
                   scenario: Optional[Scenario] = None,
                   trace: bool = False,
                   label: str = "") -> ExperimentOutcome:
    """Run one experiment and return its outcome.

    Parameters
    ----------
    protocol:
        Registered protocol name.
    config:
        Cluster configuration; defaults to the bench-scale configuration.
        ``duration_seconds`` (including ``warmup_seconds``) is the run length
        on every backend: simulated seconds on ``sim``, wall-clock seconds
        on ``inproc`` and ``tcp``.
    workload:
        Workload point; defaults to the paper's default workload.
    backend:
        One of :data:`BACKENDS`.  On ``tcp`` every client worker re-anchors
        the warmup window at traffic start, so the measurement window means
        what it means in process.
    checker:
        The recorder the clients hand their operations to (see
        :func:`~repro.harness.builder.build_cluster`); when it is a checker,
        its report is the outcome's ``checker_report``.
    check_consistency:
        Raise if the checker reports a violation; without a ``checker``,
        check with :meth:`StreamingChecker.offline()
        <repro.causal.streaming.StreamingChecker.offline>`.
    scenario:
        Optional fault scenario to execute during the run (``sim`` only);
        the result then carries one
        :class:`~repro.metrics.collectors.PhaseSlice` per phase.  ``None``
        (or an empty scenario) takes the unmodified healthy path.
    trace:
        Record the run's repro.obs event stream and attach the assembled
        timeline to the outcome; the result row then carries the per-write
        remote-visibility lag distribution.  Never perturbs the simulation.

    When ``checker`` is a checker (it has ``check``), a ``sim`` or
    ``inproc`` run ends with a quiesce step: the clients stop and the row is
    recorded, the servers run on for a settle period, the checker is
    marked quiesced and one client per DC reads the whole key space
    (:func:`_audit_reads`), so the report judges convergence on those reads;
    then the servers stop.  The row and the trace are taken before the
    step, which changes neither.  On ``tcp`` the clients live in worker
    processes, and no quiesce step runs.
    """
    require_backend(backend)
    faulted = scenario is not None and not scenario.is_empty
    if faulted and backend != "sim":
        raise ConfigurationError(
            f"fault scenarios require the sim backend, not {backend!r}")
    config = config or ClusterConfig()
    workload = workload or DEFAULT_WORKLOAD
    if check_consistency and checker is None:
        checker = StreamingChecker.offline()
    controller: Optional[FaultController] = None
    assembler: Optional[TraceAssembler] = None
    label = label or (workload.describe() if backend == "sim"
                      else f"{backend} {workload.describe()}")

    def measure(metrics, overhead: OverheadCounters, cpu_utilization: float,
                assembler: Optional[TraceAssembler]) -> RunResult:
        return metrics.finalize(
            protocol=protocol,
            num_dcs=config.num_dcs,
            clients=config.total_clients,
            measurement_seconds=config.measurement_seconds,
            overhead=overhead,
            cpu_utilization=cpu_utilization,
            label=label,
            visibility_trace=(assembler.visibility_summary()
                              if assembler is not None else None))

    if backend == "sim":
        cluster = build_cluster(protocol, config, workload, checker=checker,
                                trace=trace)
        if faulted:
            controller = FaultController(cluster.topology, cluster.metrics,
                                         scenario)
            controller.install()
        cluster.start()
        cluster.sim.run(until=config.duration_seconds)
        for client in cluster.topology.clients:
            client.stop()
        if controller is not None:
            controller.shutdown()
        if cluster.trace_bus is not None:
            assembler = TraceAssembler()
            assembler.ingest_bus(cluster.trace_bus)
        overhead = OverheadCounters()
        for server in cluster.topology.all_servers():
            overhead.merge(server.counters)
        result = measure(cluster.metrics, overhead,
                         cluster.topology.average_cpu_utilization(
                             config.duration_seconds), assembler)
        if hasattr(checker, "check"):
            _quiesce_sim(cluster, checker)
        cluster.stop()
    else:
        cluster, result, assembler = _serve_wall_clock(
            protocol, config, workload, backend, checker, trace, measure)

    report: Optional[CheckerReport] = None
    if hasattr(checker, "check"):
        report = checker.check()
        if check_consistency:
            report.raise_if_violations()
    return ExperimentOutcome(result=result, cluster=cluster,
                             checker_report=report, faults=controller,
                             trace=assembler)


def _serve_wall_clock(protocol: str, config: ClusterConfig,
                      workload: WorkloadParameters, backend: str,
                      checker: Optional[object], trace: bool, measure):
    """Start a wall-clock cluster, serve its closed loops for
    ``config.duration_seconds``, record the row with ``measure``, quiesce
    (``inproc``, see :func:`run_experiment`) and stop it; return the
    stopped cluster, the row and the trace.

    The runtime is imported here, so a simulated run (and every pool worker
    of :func:`~repro.harness.parallel.run_specs`) never loads asyncio.
    """
    import asyncio

    if backend == "tcp":
        from repro.runtime.process import ProcessCluster

        cluster = ProcessCluster(protocol, config, workload, checker=checker,
                                 trace=trace)
        serve = cluster.run_workload
    else:
        from repro.runtime.cluster import RealtimeCluster, drive_closed_loops

        cluster = RealtimeCluster(protocol, config, workload, checker=checker,
                                  trace=trace)

        async def serve(seconds: float) -> None:
            await drive_closed_loops(cluster, seconds)

    def measured():
        assembler = cluster.collect_trace() if trace else None
        return measure(cluster.metrics, cluster.overhead(), 0.0,
                       assembler), assembler

    row = None

    async def run() -> None:
        nonlocal row
        # stop() also covers a start() that failed mid-handshake: the
        # already-spawned worker processes must not be leaked.
        try:
            await cluster.start()
            await serve(config.duration_seconds)
            if backend == "inproc":
                row = measured()
                if hasattr(checker, "check"):
                    await _quiesce_inproc(cluster, checker)
        finally:
            await cluster.stop()
        # Failures recorded during teardown (e.g. a link that broke while
        # flushing) must fail the run too, not just mid-run ones.
        failure = cluster.first_failure()
        if failure is not None:
            raise failure

    asyncio.run(run())
    if row is None:
        # The TCP workers ship their metrics, counters and trace at stop.
        row = measured()
    return (cluster, *row)


def _settle_seconds(config: ClusterConfig) -> float:
    """How long the quiesce step lets the servers run without clients: ten
    periods of the slower of the stabilization and heartbeat timers, each
    plus one cross-DC hop, so the last writes replicate and every DC's
    stable snapshot covers them (about 50 ms at the defaults)."""
    period = max(config.stabilization_interval_ms,
                 config.heartbeat_interval_ms) / 1e3
    return 10 * (period + config.latency_model.inter_dc_us / 1e6)


def _audit_reads(config: ClusterConfig) -> list[Operation]:
    """The quiesce step's ROTs: together they read the whole key space,
    each one key index on every partition."""
    key = HashPartitioner.structured_key
    partitions = range(config.num_partitions)
    return [Operation("rot", tuple(key(partition, index)
                                   for partition in partitions))
            for index in range(config.keys_per_partition)]


def _quiesce_sim(cluster: BuiltCluster, checker) -> None:
    """The quiesce step of :func:`run_experiment` on the simulator; the
    clients are stopped and idle once the settle period is over."""
    sim = cluster.sim
    sim.run(until=sim.now + _settle_seconds(cluster.config))
    checker.mark_quiesced()
    reads = _audit_reads(cluster.config)
    for dc in range(cluster.config.num_dcs):
        client = cluster.topology.clients_in_dc(dc)[0]
        for operation in reads:
            cluster.perform(client, operation)


async def _quiesce_inproc(cluster: "RealtimeCluster", checker) -> None:
    """The quiesce step on ``inproc``, once the closed loops have stopped."""
    import asyncio

    await asyncio.sleep(_settle_seconds(cluster.config))
    checker.mark_quiesced()
    reads = _audit_reads(cluster.config)
    for dc in range(cluster.config.num_dcs):
        client = cluster.clients_in_dc(dc)[0]
        for operation in reads:
            await client.perform(operation)


def load_sweep(protocol: str, client_counts: Sequence[int],
               config: Optional[ClusterConfig] = None,
               workload: Optional[WorkloadParameters] = None, *,
               scenario: Optional[Scenario] = None,
               label: str = "",
               max_workers: Optional[int] = None) -> list[RunResult]:
    """Trace one throughput-versus-latency curve.

    Each point reruns the full simulation with a different number of
    closed-loop clients per DC, exactly like the paper's methodology of
    spawning more client threads to increase the load.  An optional
    ``scenario`` is executed identically at every load point.  The points
    run through :func:`~repro.harness.parallel.run_specs` (``max_workers``
    as there); the rows are the same for every worker count.
    """
    return run_specs(sweep_specs(protocol, client_counts, config, workload,
                                 scenario=scenario, label=label),
                     max_workers=max_workers)


__all__ = ["BACKENDS", "ExperimentOutcome", "load_sweep", "require_backend",
           "run_experiment"]

"""Running experiments and load sweeps.

``run_experiment`` performs one simulated run of one protocol under one
workload and returns the measured :class:`~repro.metrics.collectors.RunResult`
plus the raw pieces (the built cluster and, when enabled, the consistency
checker report).  ``load_sweep`` varies the number of closed-loop clients to
trace one throughput-versus-latency curve, which is how every figure in the
paper's evaluation is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.causal.checker import CheckerReport
from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.faults.controller import FaultController
from repro.faults.scenario import Scenario
from repro.harness.builder import BuiltCluster, build_cluster
from repro.metrics.collectors import RunResult
from repro.metrics.overheads import OverheadCounters
from repro.obs.trace import TraceAssembler
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters


@dataclass
class ExperimentOutcome:
    """The full outcome of one run (result row plus inspectable state)."""

    result: RunResult
    cluster: BuiltCluster
    checker_report: Optional[CheckerReport] = None
    faults: Optional[FaultController] = None
    #: Assembled virtual-time timeline (None unless ``trace=True``); feed to
    #: :func:`repro.obs.export.write_chrome_trace` for a Perfetto dump.
    trace: Optional[TraceAssembler] = None


def run_experiment(protocol: str,
                   config: Optional[ClusterConfig] = None,
                   workload: Optional[WorkloadParameters] = None, *,
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
    workload:
        Workload point; defaults to the paper's default workload.
    checker:
        The recorder the clients hand their operations to (see
        :func:`~repro.harness.builder.build_cluster`); when it is a checker,
        its report is the outcome's ``checker_report``.
    check_consistency:
        Raise if the checker reports a violation; without a ``checker``,
        check with :meth:`StreamingChecker.offline()
        <repro.causal.streaming.StreamingChecker.offline>`.
    scenario:
        Optional fault scenario to execute during the run; the result then
        carries one :class:`~repro.metrics.collectors.PhaseSlice` per phase.
        ``None`` (or an empty scenario) takes the unmodified healthy path.
    trace:
        Record the run's repro.obs event stream (virtual-time stamps) and
        attach the assembled timeline to the outcome; the result row then
        carries the per-write remote-visibility lag distribution.  Never
        perturbs the simulation.
    """
    config = config or ClusterConfig()
    workload = workload or DEFAULT_WORKLOAD
    if check_consistency and checker is None:
        checker = StreamingChecker.offline()
    cluster = build_cluster(protocol, config, workload, checker=checker,
                            trace=trace)
    controller: Optional[FaultController] = None
    if scenario is not None and not scenario.is_empty:
        controller = FaultController(cluster.topology, cluster.metrics, scenario)
        controller.install()
    cluster.start()
    cluster.sim.run(until=config.duration_seconds)
    cluster.stop()
    if controller is not None:
        controller.shutdown()

    assembler: Optional[TraceAssembler] = None
    if cluster.trace_bus is not None:
        assembler = TraceAssembler()
        assembler.ingest_bus(cluster.trace_bus)

    overhead = OverheadCounters()
    for server in cluster.topology.all_servers():
        overhead.merge(server.counters)
    result = cluster.metrics.finalize(
        protocol=protocol,
        num_dcs=config.num_dcs,
        clients=config.total_clients,
        measurement_seconds=config.measurement_seconds,
        overhead=overhead,
        cpu_utilization=cluster.topology.average_cpu_utilization(
            config.duration_seconds),
        label=label or workload.describe(),
        visibility_trace=(assembler.visibility_summary()
                          if assembler is not None else None))

    report: Optional[CheckerReport] = None
    if hasattr(checker, "check"):
        report = checker.check()
        if check_consistency:
            report.raise_if_violations()
    return ExperimentOutcome(result=result, cluster=cluster,
                             checker_report=report, faults=controller,
                             trace=assembler)


def load_sweep(protocol: str, client_counts: Sequence[int],
               config: Optional[ClusterConfig] = None,
               workload: Optional[WorkloadParameters] = None, *,
               scenario: Optional[Scenario] = None,
               label: str = "") -> list[RunResult]:
    """Trace one throughput-versus-latency curve.

    Each point reruns the full simulation with a different number of
    closed-loop clients per DC, exactly like the paper's methodology of
    spawning more client threads to increase the load.  An optional
    ``scenario`` is executed identically at every load point.
    """
    config = config or ClusterConfig()
    results: list[RunResult] = []
    for clients in client_counts:
        point_config = config.with_changes(clients_per_dc=clients)
        outcome = run_experiment(protocol, point_config, workload,
                                 scenario=scenario, label=label)
        results.append(outcome.result)
    return results


__all__ = ["ExperimentOutcome", "load_sweep", "run_experiment"]

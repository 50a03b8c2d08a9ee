"""Workload-driven runs on the real-time backend (any transport).

:func:`run_realtime_experiment` is the wall-clock sibling of
:func:`repro.harness.runner.run_experiment`: it builds a real-time cluster,
serves genuinely concurrent closed-loop clients for a wall-clock duration,
and condenses the measured latencies/overheads into the same
:class:`~repro.metrics.collectors.RunResult` row format the figures use — so
simulated and real-time numbers can sit in the same table
(``benchmarks/run_smoke_benchmark.py --backend realtime``).

``transport`` selects the message path:

* ``"inproc"`` (default) — one process, one event loop, queue delivery
  (:class:`~repro.runtime.cluster.RealtimeCluster` over
  :class:`~repro.runtime.transport.InprocTransport`);
* ``"tcp"`` — a :class:`~repro.runtime.process.ProcessCluster`: every
  partition server in its own OS process, per-DC client worker processes,
  coalesced wire-codec frames over TCP, the clients' observations streamed
  to the parent during the run and folded into the run's checker.

A checker is passed as an *instance* (``checker=StreamingChecker()``), with
:class:`~repro.runtime.cluster.RealtimeCluster`'s meaning on either
transport; ``check_consistency=True`` without one checks with
:meth:`StreamingChecker.offline()
<repro.causal.streaming.StreamingChecker.offline>`.

Real seconds are expensive compared to simulated ones, so the default
duration is deliberately short; pass ``duration_seconds`` explicitly for
longer measurements.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Union

from repro.causal.checker import CheckerReport
from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.core.registry import resolve_spec
from repro.errors import ConfigurationError
from repro.metrics.collectors import RunResult
from repro.obs.trace import TraceAssembler
from repro.runtime.cluster import RealtimeCluster, drive_closed_loops
from repro.runtime.process import ProcessCluster
from repro.runtime.transport import TRANSPORTS
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters

#: Default wall-clock run length (seconds) including warmup.
DEFAULT_REALTIME_DURATION = 1.0


@dataclass
class RealtimeOutcome:
    """The full outcome of one real-time run (result row plus state)."""

    result: RunResult
    cluster: Union[RealtimeCluster, ProcessCluster]
    checker_report: Optional[CheckerReport] = None
    #: Assembled run-wide timeline (None unless ``trace=True``); feed to
    #: :func:`repro.obs.export.write_chrome_trace` for a Perfetto dump.
    trace: Optional[TraceAssembler] = None


def _validate_transport(protocol: str, transport: str) -> None:
    if transport not in TRANSPORTS:
        raise ConfigurationError(
            f"unknown transport {transport!r}; known: {list(TRANSPORTS)}")
    spec = resolve_spec(protocol)
    if transport not in spec.transports:
        raise ConfigurationError(
            f"protocol {protocol!r} does not support the {transport!r} "
            f"transport; supported: {list(spec.transports)}")


def run_realtime_experiment(protocol: str,
                            config: Optional[ClusterConfig] = None,
                            workload: Optional[WorkloadParameters] = None, *,
                            duration_seconds: Optional[float] = None,
                            transport: str = "inproc",
                            check_consistency: bool = False,
                            checker: Optional[object] = None,
                            trace: bool = False,
                            label: str = "") -> RealtimeOutcome:
    """Run one wall-clock experiment and return its outcome.

    Parameters mirror :func:`repro.harness.runner.run_experiment`;
    ``duration_seconds`` (wall-clock, including the config's warmup window)
    defaults to :data:`DEFAULT_REALTIME_DURATION` rather than the config's
    simulated duration, because real seconds actually elapse.  With
    ``transport="tcp"`` the warmup window is re-anchored at traffic start in
    every client worker, so the measurement window matches the in-process
    semantics.  ``checker`` is the recorder instance to validate the run
    with: a :class:`~repro.causal.streaming.StreamingChecker` verifies
    GSS-bounded windows during the run with bounded memory.
    """
    config = config or ClusterConfig.test_scale()
    workload = workload or DEFAULT_WORKLOAD
    _validate_transport(protocol, transport)
    duration = (DEFAULT_REALTIME_DURATION if duration_seconds is None
                else duration_seconds)
    if duration <= config.warmup_seconds:
        # Mirror ClusterConfig's own duration/warmup validation instead of
        # silently stretching an explicitly requested duration.
        raise ConfigurationError(
            f"duration_seconds ({duration}) must be greater than the "
            f"config's warmup_seconds ({config.warmup_seconds})")

    if check_consistency and checker is None:
        checker = StreamingChecker.offline()
    if transport == "tcp":
        cluster: Union[RealtimeCluster, ProcessCluster] = ProcessCluster(
            protocol, config, workload, checker=checker,
            workload_clients=True, trace=trace)

        async def _run() -> None:
            # stop() also covers a start() that failed mid-handshake: the
            # already-spawned worker processes must not be leaked.
            try:
                await cluster.start()
                await cluster.run_workload(duration)
            finally:
                await cluster.stop()
            failure = cluster.first_failure()
            if failure is not None:
                raise failure
    else:
        cluster = RealtimeCluster(protocol, config, workload,
                                  checker=checker, trace=trace)

        async def _run() -> None:
            try:
                await cluster.start()
                await drive_closed_loops(cluster, duration)
            finally:
                await cluster.stop()
            # Failures recorded during teardown (e.g. a link that broke
            # while flushing) must fail the run too, not just mid-run ones.
            failure = cluster.first_failure()
            if failure is not None:
                raise failure

    asyncio.run(_run())

    assembler = cluster.collect_trace() if trace else None
    measurement = max(duration - config.warmup_seconds, 1e-9)
    result = cluster.metrics.finalize(
        protocol=protocol,
        num_dcs=config.num_dcs,
        clients=config.total_clients,
        measurement_seconds=measurement,
        overhead=cluster.overhead(),
        cpu_utilization=0.0,
        label=label or f"realtime[{transport}] {workload.describe()}",
        visibility_trace=(assembler.visibility_summary()
                          if assembler is not None else None))

    report: Optional[CheckerReport] = None
    if hasattr(checker, "check"):
        report = checker.check()
        if check_consistency:
            report.raise_if_violations()
    return RealtimeOutcome(result=result, cluster=cluster,
                           checker_report=report, trace=assembler)


__all__ = ["DEFAULT_REALTIME_DURATION", "RealtimeOutcome",
           "run_realtime_experiment"]

"""Real-time backend: the sans-I/O protocol kernels on asyncio.

This package is the second driver of the protocol kernels in
:mod:`repro.core` (the first is the discrete-event simulator in
:mod:`repro.sim`), layered as wire -> transport -> runtime:

* :mod:`repro.wire` encodes messages into self-describing frames;
* :mod:`repro.runtime.transport` delivers them — straight into the
  destination's run queue (:class:`InprocTransport`) or as length-prefixed
  batch frames over TCP connections served by ``asyncio.Protocol``
  callbacks (:class:`TcpTransport`);
* the runtime drives the kernels from one run queue and loop timers per
  cluster, on wall-clock time — real concurrency, real HLC/physical clocks,
  the same protocol logic, the same metrics and the same consistency checker.
  With :class:`ProcessCluster`, every partition server runs in its own OS
  process (true multi-core execution) and the parent checks the merged
  cross-process history.

Entry points:

* ``run_experiment(..., backend="inproc" | "tcp")``
  (:mod:`repro.harness.runner`) — a workload-driven wall-clock run
  returning the same :class:`~repro.metrics.collectors.RunResult` row as a
  simulated one;
* ``CausalStore(backend="inproc" | "tcp")`` (:mod:`repro.api`) — the
  interactive facade served by this backend;
* :class:`~repro.runtime.cluster.RealtimeCluster` /
  :class:`~repro.runtime.process.ProcessCluster` — the building blocks.
"""

from repro._lazy import make_lazy

_EXPORTS = {
    "Envelope": "repro.wire.batch",
    "InprocTransport": "repro.runtime.transport",
    "ProcessCluster": "repro.runtime.process",
    "RealtimeClient": "repro.runtime.nodes",
    "RealtimeCluster": "repro.runtime.cluster",
    "RealtimeServer": "repro.runtime.nodes",
    "TcpTransport": "repro.runtime.transport",
    "Transport": "repro.runtime.transport",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = make_lazy(__name__, _EXPORTS, globals())

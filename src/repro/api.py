"""High-level public API.

Most users interact with the library through three entry points:

* :class:`CausalStore` — an in-process facade exposing the paper's API
  (``put``, ``get``, ``rot``) for a chosen protocol, on a chosen *backend*:
  ``backend="sim"`` (default) drives the discrete-event simulator and
  returns the values the protocol would produce together with the simulated
  latency; ``backend="realtime"`` serves the same protocol kernels from real
  asyncio tasks on wall-clock time.  Both record the operation history for
  the causal-consistency checker (:meth:`CausalStore.check`), and both
  support deterministic teardown (:meth:`CausalStore.close` or use the
  store as a context manager).
* :func:`repro.harness.run_experiment` / :func:`repro.harness.load_sweep` —
  workload-driven performance runs (what the figures use) — the executor
  every multi-run study goes through, :func:`repro.harness.run_specs` (with
  :class:`repro.harness.RunSpec` / :func:`repro.harness.sweep_specs` to
  describe the runs and :func:`repro.harness.run_series` to group them),
  and the wall-clock sibling :func:`repro.runtime.run_realtime_experiment`,
  re-exported here.
* :mod:`repro.harness.figures` / :mod:`repro.harness.tables` — regenerate the
  paper's evaluation (both fan their run grids over worker processes).

``CausalStore`` is meant for correctness-oriented exploration (examples,
tests, teaching); the harness is meant for performance studies.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.causal.checker import CheckerReport
from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigurationError, RuntimeBackendError
from repro.faults import Scenario, get_scenario
from repro.harness.builder import BuiltCluster, build_cluster
from repro.harness.parallel import RunSpec, run_series, run_specs, sweep_specs
from repro.harness.runner import load_sweep, run_experiment
from repro.obs.export import write_chrome_trace
from repro.obs.trace import TraceAssembler
from repro.runtime.cluster import RealtimeCluster
from repro.runtime.experiment import run_realtime_experiment
from repro.runtime.process import ProcessCluster
from repro.runtime.transport import TRANSPORTS
from repro.workload.parameters import WorkloadParameters

#: Backends :class:`CausalStore` can run on.
BACKENDS = ("sim", "realtime")


@dataclass(frozen=True)
class OperationResult:
    """Outcome of one facade operation.

    ``latency_ms`` is simulated milliseconds on the ``sim`` backend and
    wall-clock milliseconds on the ``realtime`` backend.
    """

    kind: str
    keys: tuple[str, ...]
    values: dict[str, Optional[int]]
    latency_ms: float


class CausalStore:
    """A causally consistent key-value store driven step-by-step.

    The facade creates a single "interactive" client per data center.  Every
    call advances the backend until the operation completes, then returns.
    The store validates the recorded history on demand via :meth:`check`.

    Parameters
    ----------
    protocol:
        ``"contrarian"`` (default), ``"cure"``, ``"cc-lo"``, or any protocol
        added through :func:`repro.core.registry.register_protocol`.
    backend:
        ``"sim"`` (default) — operations run on the deterministic
        discrete-event simulator; ``"realtime"`` — operations are served by
        asyncio tasks on wall-clock time (the store owns a private event
        loop and steps it while an operation is in flight).
    transport:
        Realtime backend only.  ``"inproc"`` (default) keeps every node on
        the store's private event loop; ``"tcp"`` spawns each partition
        server in its own OS process and the store's interactive clients
        talk to them over wire-encoded TCP frames.
    num_partitions / num_dcs:
        Topology of the cluster.
    config:
        Full configuration; overrides the two convenience parameters.
    trace:
        Record every operation's causal span chain on the repro.obs event
        bus; inspect via :meth:`trace_timeline` or export a Perfetto/Chrome
        timeline with :meth:`dump_trace`.
    checker:
        The :class:`~repro.causal.streaming.StreamingChecker` :meth:`check`
        asks, e.g. a windowed one to validate a long history with bounded
        memory.  ``None`` (default) checks the whole history as one window
        (:meth:`~repro.causal.streaming.StreamingChecker.offline`).

    The store is a context manager; :meth:`close` (idempotent) tears down
    the built cluster — periodic simulator tasks or asyncio tasks, worker
    processes on the TCP transport, and the private event loop.
    """

    def __init__(self, protocol: str = "contrarian", *,
                 backend: str = "sim", transport: str = "inproc",
                 num_partitions: int = 4, num_dcs: int = 1,
                 config: Optional[ClusterConfig] = None,
                 trace: bool = False,
                 checker: Optional[object] = None) -> None:
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; known: {list(BACKENDS)}")
        if transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {transport!r}; known: {list(TRANSPORTS)}")
        if transport != "inproc" and backend != "realtime":
            raise ConfigurationError(
                f"transport {transport!r} requires backend='realtime' "
                f"(the sim backend has no wire)")
        self.protocol = protocol
        self.backend = backend
        self.transport = transport
        base = config or ClusterConfig.test_scale(num_partitions=num_partitions,
                                                  num_dcs=num_dcs,
                                                  clients_per_dc=1)
        self._results: list[OperationResult] = []
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._trace = trace
        self._trace_assembler: Optional[TraceAssembler] = None
        self._checker = checker = (StreamingChecker.offline()
                                   if checker is None else checker)
        if backend == "realtime":
            self._init_realtime(base, checker)
        else:
            self._init_sim(base, checker)

    # ------------------------------------------------------------------ build
    def _init_sim(self, base: ClusterConfig, checker: object) -> None:
        # The facade issues operations itself, so the built-in workload-driven
        # clients must stay idle: one client per DC is created but never
        # started.
        self._cluster: BuiltCluster = build_cluster(
            self.protocol, base, WorkloadParameters(rot_size=1),
            checker=checker, trace=self._trace)
        for server in self._cluster.topology.all_servers():
            server.start()
        self._clients = {dc: self._cluster.topology.clients_in_dc(dc)[0]
                         for dc in range(base.num_dcs)}

    def _init_realtime(self, base: ClusterConfig, checker: object) -> None:
        # Build (and thereby validate) the cluster before creating the event
        # loop, so a bad protocol name cannot leak an unclosed loop.
        build = ProcessCluster if self.transport == "tcp" else RealtimeCluster
        self._rt_cluster = build(
            self.protocol, base, WorkloadParameters(rot_size=1),
            checker=checker, workload_clients=False, trace=self._trace)
        # Interactive clients must exist before start(): on the TCP
        # transport the peer table is distributed exactly once.
        self._clients = {dc: self._rt_cluster.add_client(dc, 0)
                         for dc in range(base.num_dcs)}
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self._rt_cluster.start())
        except BaseException:
            # A failed start must not leak worker processes (TCP transport)
            # or the private loop.
            try:
                self._loop.run_until_complete(self._rt_cluster.stop())
            except Exception:  # noqa: BLE001 - the start failure wins
                pass
            self._loop.close()
            raise

    # ------------------------------------------------------------------ sugar
    @property
    def cluster(self):
        """The underlying cluster (for inspection): a
        :class:`~repro.harness.builder.BuiltCluster` on the ``sim`` backend,
        a :class:`~repro.runtime.cluster.RealtimeCluster` on ``realtime``."""
        return self._rt_cluster if self.backend == "realtime" else self._cluster

    @property
    def history(self) -> list[OperationResult]:
        """Every operation performed through this facade, in order."""
        return list(self._results)

    def _client(self, dc: int):
        try:
            return self._clients[dc]
        except KeyError as exc:
            raise ConfigurationError(f"no client attached to DC {dc}") from exc

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigurationError("this CausalStore has been closed")

    # ------------------------------------------------------------- operations
    def put(self, key: str, value_size: int = 8, *, dc: int = 0) -> OperationResult:
        """Create a new version of ``key`` and wait for the PUT to complete."""
        operation = _SyntheticOperation(kind="put", keys=(key,),
                                        value_size=value_size)
        return self._drive(self._client(dc), operation)

    def rot(self, keys: Sequence[str], *, dc: int = 0) -> OperationResult:
        """Read ``keys`` from a causally consistent snapshot."""
        operation = _SyntheticOperation(kind="rot", keys=tuple(keys),
                                        value_size=8)
        return self._drive(self._client(dc), operation)

    def get(self, key: str, *, dc: int = 0) -> Optional[int]:
        """Read a single key (a ROT of size one); returns the version timestamp."""
        return self.rot([key], dc=dc).values[key]

    def _drive(self, client, operation) -> OperationResult:
        self._ensure_open()
        drive = (self._drive_realtime if self.backend == "realtime"
                 else self._drive_sim)
        outcome, seconds = drive(client, operation)
        if operation.is_put:
            values: dict[str, Optional[int]] = {outcome.key: outcome.timestamp}
        else:
            values = {read.key: read.timestamp
                      for read in outcome.results.values()}
        result = OperationResult(kind=operation.kind, keys=operation.keys,
                                 values=values, latency_ms=seconds * 1000.0)
        self._results.append(result)
        return result

    def _drive_realtime(self, client, operation) -> tuple[object, float]:
        clock = self._rt_cluster.clock
        started = clock.now
        try:
            outcome = self._loop.run_until_complete(client.perform(operation))
        except RuntimeBackendError:
            # A timed-out operation usually means a node failed; surface
            # that root cause instead of the generic timeout.
            failure = self._rt_cluster.first_failure()
            if failure is not None:
                raise failure
            raise
        return outcome, clock.now - started

    def _drive_sim(self, client, operation) -> tuple[object, float]:
        # The facade's clients are never started, so completing an operation
        # does not re-enter the closed loop: the facade issues each one
        # itself and steps the simulator until the host reports it done.
        sim = self._cluster.sim
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

    # ------------------------------------------------------------------ audit
    def advance(self, seconds: float) -> None:
        """Advance time (lets replication and stabilization run).

        Simulated seconds on the ``sim`` backend; *wall-clock* seconds on
        ``realtime`` (the call genuinely sleeps while the cluster serves).
        """
        self._ensure_open()
        if self.backend == "realtime":
            self._loop.run_until_complete(asyncio.sleep(seconds))
        else:
            self._cluster.sim.run(until=self._cluster.sim.now + seconds)

    def trace_timeline(self) -> TraceAssembler:
        """The assembled repro.obs timeline of everything traced so far.

        Requires ``trace=True``.  On the ``tcp`` transport the worker-side
        server events only arrive when the store is closed (they ship over
        the control plane at shutdown), so close first for a complete
        timeline; ``sim`` and ``inproc`` timelines are complete at any time.
        """
        if not self._trace:
            raise ConfigurationError(
                "this CausalStore was created without trace=True")
        if self.backend == "realtime" and self.transport == "tcp":
            return self._rt_cluster.collect_trace()
        bus = (self._rt_cluster.trace_bus if self.backend == "realtime"
               else self._cluster.trace_bus)
        if self._trace_assembler is None:
            self._trace_assembler = TraceAssembler()
        self._trace_assembler.ingest_bus(bus)
        return self._trace_assembler

    def dump_trace(self, path) -> dict:
        """Write the timeline as a Chrome-trace JSON (open in Perfetto)."""
        assembler = self.trace_timeline()
        return write_chrome_trace(path, {self.protocol: assembler.events()})

    def check(self) -> CheckerReport:
        """Validate the recorded history against causal consistency."""
        return self._checker.check()

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Tear down the built cluster; safe to call more than once.

        On the ``sim`` backend this stops the idle clients and cancels the
        servers' periodic tasks so the event queue can drain; on
        ``realtime`` it cancels every asyncio task and closes the private
        event loop.
        """
        if self._closed:
            return
        self._closed = True
        if self.backend == "realtime":
            self._loop.run_until_complete(self._rt_cluster.stop())
            self._loop.close()
        else:
            self._cluster.stop()

    def __enter__(self) -> "CausalStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        del exc_type, exc_value, traceback
        self.close()


@dataclass(frozen=True)
class _SyntheticOperation:
    """Minimal stand-in for a workload operation used by the facade."""

    kind: str
    keys: tuple[str, ...]
    value_size: int

    @property
    def is_put(self) -> bool:
        return self.kind == "put"

    @property
    def is_rot(self) -> bool:
        return self.kind == "rot"


__all__ = [
    "BACKENDS",
    "TRANSPORTS",
    "CausalStore",
    "OperationResult",
    "RunSpec",
    "Scenario",
    "get_scenario",
    "load_sweep",
    "run_experiment",
    "run_realtime_experiment",
    "run_series",
    "run_specs",
    "sweep_specs",
]

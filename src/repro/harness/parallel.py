"""Process-pool experiment runner.

Every figure of the paper is a throughput-versus-latency curve produced by
rerunning the full simulation once per (protocol, workload point, client
count, seed) combination.  The runs are completely independent — each one
builds its own simulator, cluster and RNGs from an explicit seed — which
makes a sweep embarrassingly parallel.  This module fans a grid of runs out
over ``multiprocessing`` workers:

* :class:`RunSpec` — a picklable description of one run (protocol, cluster
  configuration, workload point, label).  Specs carry everything a worker
  needs; nothing is inherited from parent-process state, so a spec executes
  identically in-process, in a forked worker and in a spawned worker.
* :class:`ParallelRunner` — executes a sequence of specs over a process pool
  and collects the resulting :class:`~repro.metrics.collectors.RunResult`
  rows *in spec order*, regardless of which worker finished first.  Worker
  failures are re-raised in the parent as :class:`ParallelExecutionError`
  with the original traceback attached.
* :func:`parallel_load_sweep` — a drop-in replacement for
  :func:`repro.harness.runner.load_sweep`.  It builds exactly the same
  per-point configurations as the serial sweep, so for the same seeds it
  returns bit-identical result rows — only the wall-clock changes.
* :func:`derive_seed` — deterministic per-spec seed derivation for grids
  that want independent randomness per cell (e.g. repeating a sweep over
  several seeds).  The derivation hashes the components with SHA-256, so it
  is stable across processes, platforms and ``PYTHONHASHSEED`` values.

Usage::

    from repro.harness.parallel import parallel_load_sweep

    results = parallel_load_sweep("contrarian", (4, 16, 48), max_workers=4)

Worker-count resolution: an explicit ``max_workers`` wins; otherwise the
``REPRO_PARALLEL_WORKERS`` environment variable; otherwise ``os.cpu_count()``.
A resolved count of one (or a single spec) runs serially in-process, so the
parallel entry points are safe defaults on any machine.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import traceback
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.errors import SimulationError
from repro.faults.scenario import Scenario
from repro.metrics.collectors import RunResult
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters

#: Environment variable consulted when ``max_workers`` is not given.
WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"


class ParallelExecutionError(SimulationError):
    """A worker process failed while executing a :class:`RunSpec`.

    The stringified worker traceback is preserved on ``worker_traceback``
    (and included in the message) because the original exception object may
    not survive pickling back to the parent.
    """

    def __init__(self, spec: "RunSpec", worker_traceback: str) -> None:
        self.spec = spec
        self.worker_traceback = worker_traceback
        super().__init__(
            f"worker failed while running {spec.describe()}:\n{worker_traceback}")


@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one experiment run.

    ``config.seed`` is the run's complete source of randomness, so two
    executions of the same spec — in any process — produce the same
    :class:`RunResult`.
    """

    protocol: str
    config: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadParameters = field(default_factory=lambda: DEFAULT_WORKLOAD)
    label: str = ""
    scenario: Optional[Scenario] = None
    check_consistency: bool = False

    def describe(self) -> str:
        """Human-readable one-line description (used in error messages)."""
        scenario = ""
        if self.scenario is not None and not self.scenario.is_empty:
            scenario = f", scenario={self.scenario.name or 'anonymous'!r}"
        return (f"RunSpec(protocol={self.protocol!r}, "
                f"clients_per_dc={self.config.clients_per_dc}, "
                f"dcs={self.config.num_dcs}, seed={self.config.seed}, "
                f"label={self.label!r}{scenario})")


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a deterministic 63-bit seed from a base seed and components.

    Independent grid cells (e.g. repetitions of a sweep) need independent
    randomness that does not depend on execution order or process identity.
    Hashing with SHA-256 keeps the derivation reproducible everywhere,
    unlike the built-in ``hash`` which is salted per process.
    """
    text = ":".join([str(base_seed)] + [str(component) for component in components])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec to completion and return its result row.

    This is the function worker processes execute; it is importable at module
    top level so specs survive the ``spawn`` start method as well as ``fork``.
    """
    # Imported lazily so that pickling a RunSpec never drags the whole
    # protocol stack into the parent's pickle payloads.
    from repro.harness.runner import run_experiment

    outcome = run_experiment(spec.protocol, spec.config, spec.workload,
                             scenario=spec.scenario,
                             check_consistency=spec.check_consistency,
                             label=spec.label)
    return outcome.result


def _execute_spec_guarded(spec: RunSpec) -> tuple[bool, object]:
    """Worker wrapper: never raises, returns ``(ok, result_or_traceback)``.

    Exceptions are flattened to a traceback string in the worker because not
    every exception (or exception argument) survives the pickling round-trip
    back to the parent.
    """
    try:
        return True, execute_spec(spec)
    except Exception:
        # Exception only: KeyboardInterrupt/SystemExit must keep behaving as
        # interrupts (the pool tears down) rather than being mislabeled as a
        # failed simulation.
        return False, traceback.format_exc()


def resolve_worker_count(max_workers: Optional[int] = None) -> int:
    """Resolve the worker count: explicit > environment > CPU count."""
    if max_workers is not None:
        return max(1, int(max_workers))
    env_value = os.environ.get(WORKERS_ENV_VAR)
    if env_value:
        try:
            return max(1, int(env_value))
        except ValueError:
            raise SimulationError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env_value!r}")
    return max(1, os.cpu_count() or 1)


class ParallelRunner:
    """Fans :class:`RunSpec` grids out over a pool of worker processes.

    Parameters
    ----------
    max_workers:
        Upper bound on concurrent worker processes; resolved via
        :func:`resolve_worker_count` when omitted.  A bound of one executes
        specs serially in-process (no pool, no pickling).
    start_method:
        ``multiprocessing`` start method.  Defaults to the platform default
        (``fork`` on Linux, ``spawn`` on macOS/Windows — ``fork`` is not
        fork-safe there); results are identical either way because specs are
        self-contained.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        self.max_workers = resolve_worker_count(max_workers)
        if start_method is None:
            start_method = multiprocessing.get_start_method()
        self.start_method = start_method

    def run(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Execute ``specs`` and return their results in spec order.

        Ordering is guaranteed by collection, not by scheduling: workers may
        finish in any order, but result ``i`` always belongs to ``specs[i]``.
        The first failing spec (in spec order) raises
        :class:`ParallelExecutionError`.
        """
        specs = list(specs)
        workers = min(self.max_workers, len(specs))
        if workers <= 1:
            # Same error contract as the pool path: callers catch one
            # exception type regardless of the resolved worker count.
            results = []
            for spec in specs:
                try:
                    results.append(execute_spec(spec))
                except Exception as exc:
                    raise ParallelExecutionError(spec, traceback.format_exc()) from exc
            return results
        context = multiprocessing.get_context(self.start_method)
        # chunksize=1 keeps long and short runs balanced across workers;
        # Pool.map preserves input order in its result list.
        with context.Pool(processes=workers) as pool:
            payloads = pool.map(_execute_spec_guarded, specs, chunksize=1)
        results: list[RunResult] = []
        for spec, (ok, payload) in zip(specs, payloads):
            if not ok:
                raise ParallelExecutionError(spec, str(payload))
            results.append(payload)  # type: ignore[arg-type]
        return results


def sweep_specs(protocol: str, client_counts: Sequence[int],
                config: Optional[ClusterConfig] = None,
                workload: Optional[WorkloadParameters] = None, *,
                scenario: Optional[Scenario] = None,
                check_consistency: bool = False,
                label: str = "") -> list[RunSpec]:
    """The specs of one load sweep — identical points to the serial sweep."""
    config = config or ClusterConfig()
    workload = workload or DEFAULT_WORKLOAD
    return [RunSpec(protocol=protocol,
                    config=config.with_changes(clients_per_dc=clients),
                    workload=workload, label=label, scenario=scenario,
                    check_consistency=check_consistency)
            for clients in client_counts]


def parallel_load_sweep(protocol: str, client_counts: Sequence[int],
                        config: Optional[ClusterConfig] = None,
                        workload: Optional[WorkloadParameters] = None, *,
                        scenario: Optional[Scenario] = None,
                        label: str = "",
                        max_workers: Optional[int] = None,
                        runner: Optional[ParallelRunner] = None) -> list[RunResult]:
    """Drop-in parallel replacement for :func:`repro.harness.runner.load_sweep`.

    Builds the exact per-point configurations the serial sweep builds (same
    seeds, same workload, same fault scenario), so the returned rows are
    bit-identical to the serial ones; only wall-clock time differs.
    """
    runner = runner or ParallelRunner(max_workers=max_workers)
    return runner.run(sweep_specs(protocol, client_counts, config, workload,
                                  scenario=scenario, label=label))


def grid_specs(protocols: Sequence[str], client_counts: Sequence[int],
               seeds: Sequence[int] = (None,),  # type: ignore[assignment]
               config: Optional[ClusterConfig] = None,
               workload: Optional[WorkloadParameters] = None, *,
               scenario: Optional[Scenario] = None,
               check_consistency: bool = False,
               label: str = "") -> list[RunSpec]:
    """Specs for a full (protocol x client count x seed) grid.

    A seed of ``None`` keeps the configuration's own seed (matching the
    serial sweep); integer seeds are mixed into a per-cell seed with
    :func:`derive_seed` so that repetitions are independent but reproducible.
    An optional fault ``scenario`` is attached to every cell.
    """
    config = config or ClusterConfig()
    workload = workload or DEFAULT_WORKLOAD
    specs = []
    for protocol in protocols:
        for seed in seeds:
            for clients in client_counts:
                point = config.with_changes(clients_per_dc=clients)
                if seed is not None:
                    point = point.with_changes(
                        seed=derive_seed(config.seed, protocol, clients, seed))
                specs.append(RunSpec(protocol=protocol, config=point,
                                     workload=workload, label=label,
                                     scenario=scenario,
                                     check_consistency=check_consistency))
    return specs


def run_grid(protocols: Sequence[str], client_counts: Sequence[int],
             seeds: Sequence[int] = (None,),  # type: ignore[assignment]
             config: Optional[ClusterConfig] = None,
             workload: Optional[WorkloadParameters] = None, *,
             scenario: Optional[Scenario] = None,
             check_consistency: bool = False,
             label: str = "",
             max_workers: Optional[int] = None) -> dict[str, list[RunResult]]:
    """Run a full grid in one pool; results grouped by protocol, spec order.

    Fanning the whole grid into a single :meth:`ParallelRunner.run` call (as
    opposed to one pool per sweep) keeps every worker busy until the last
    run finishes, which matters when protocols have very different costs.
    """
    specs = grid_specs(protocols, client_counts, seeds, config, workload,
                       scenario=scenario, check_consistency=check_consistency,
                       label=label)
    results = ParallelRunner(max_workers=max_workers).run(specs)
    grouped: dict[str, list[RunResult]] = {protocol: [] for protocol in protocols}
    for spec, result in zip(specs, results):
        grouped[spec.protocol].append(result)
    return grouped


__all__ = [
    "ParallelExecutionError",
    "ParallelRunner",
    "RunSpec",
    "WORKERS_ENV_VAR",
    "derive_seed",
    "execute_spec",
    "grid_specs",
    "parallel_load_sweep",
    "resolve_worker_count",
    "run_grid",
    "sweep_specs",
]

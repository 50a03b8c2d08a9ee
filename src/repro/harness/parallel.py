"""The one way a multi-run study executes.

Every figure of the paper is a throughput-versus-latency curve produced by
rerunning the full simulation once per (protocol, workload point, client
count) combination.  The runs are completely independent — each one builds
its own simulator, cluster and RNGs from the seed in its configuration — so
every sweep, figure, table and ablation is a list of run descriptions handed
to one executor:

* :class:`RunSpec` — a picklable description of one run (protocol, cluster
  configuration, workload point, label).  Specs carry everything a worker
  needs; nothing is inherited from parent-process state, so a spec executes
  identically in-process, in a forked worker and in a spawned worker.
* :func:`sweep_specs` — the specs of one load sweep, one per client count.
* :func:`run_specs` — executes specs and returns their
  :class:`~repro.metrics.collectors.RunResult` rows *in spec order*,
  regardless of which worker finished first.
* :func:`run_series` — executes a whole figure or grid (named lists of
  specs) in one pool and regroups the rows by series.

Usage::

    from repro.harness.parallel import run_specs, sweep_specs

    results = run_specs(sweep_specs("contrarian", (4, 16, 48)), max_workers=4)

Worker-count resolution: an explicit ``max_workers`` wins; otherwise the
``REPRO_PARALLEL_WORKERS`` environment variable; otherwise ``os.cpu_count()``.
A resolved count of one (or a single spec) runs in-process, so every entry
point is a safe default on any machine.  Because a run's randomness comes
only from its spec, the rows are bit-identical whatever the worker count.
A run that raises and a worker process that dies (an OOM kill, a segfault,
``os._exit``) both surface as :class:`ParallelExecutionError`.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.errors import SimulationError
from repro.faults.scenario import Scenario
from repro.metrics.collectors import RunResult
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters

#: Environment variable consulted when ``max_workers`` is not given.
WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"


class ParallelExecutionError(SimulationError):
    """A run failed, or the worker process running it died.

    ``specs`` holds the failed spec or, when a worker process died, every
    spec that was in flight in the pool (one of them was running in the dead
    worker); ``spec`` is the first of them.  The stringified traceback is
    preserved on ``worker_traceback`` (and included in the message) because
    the original exception object may not survive pickling back to the
    parent.
    """

    def __init__(self, specs: Sequence["RunSpec"], worker_traceback: str) -> None:
        self.specs = tuple(specs)
        self.spec = self.specs[0]
        self.worker_traceback = worker_traceback
        described = "\n  ".join(spec.describe() for spec in self.specs)
        super().__init__(
            f"worker failed while running {described}:\n{worker_traceback}")


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


def _run_guarded(spec: RunSpec) -> tuple[bool, object]:
    """Run one spec; return ``(True, result)`` or ``(False, traceback)``.

    The one function both execution paths of :func:`run_specs` call, so a
    failing run raises the same error in-process and in a pool.  It never
    raises: exceptions are flattened to a traceback string in the worker
    because not every exception (or exception argument) survives the
    pickling round-trip back to the parent.  It lives at module top level so
    specs survive the ``spawn`` start method as well as ``fork``.
    """
    # Imported here because repro.harness.runner imports this module.
    from repro.harness.runner import run_experiment

    try:
        outcome = run_experiment(spec.protocol, spec.config, spec.workload,
                                 scenario=spec.scenario,
                                 check_consistency=spec.check_consistency,
                                 label=spec.label)
    except Exception:
        # Exception only: KeyboardInterrupt/SystemExit must keep behaving as
        # interrupts rather than being mislabeled as a failed simulation.
        return False, traceback.format_exc()
    return True, outcome.result


def _unwrap(spec: RunSpec, outcome: tuple[bool, object]) -> RunResult:
    ok, payload = outcome
    if not ok:
        raise ParallelExecutionError([spec], str(payload))
    return payload  # type: ignore[return-value]


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


def run_specs(specs: Sequence[RunSpec], *,
              max_workers: Optional[int] = None) -> list[RunResult]:
    """Execute ``specs`` and return their results in spec order.

    One resolved worker (or one spec) runs them in-process; otherwise one
    :class:`~concurrent.futures.ProcessPoolExecutor` does, with at most one
    spec per worker in flight, so the specs a dead worker's error names are
    exactly the ones that were running.  The first failure raises
    :class:`ParallelExecutionError` and starts no further spec.
    """
    specs = list(specs)
    workers = min(resolve_worker_count(max_workers), len(specs))
    if workers <= 1:
        return [_unwrap(spec, _run_guarded(spec)) for spec in specs]
    results: list[Optional[RunResult]] = [None] * len(specs)
    in_flight: dict[Future, int] = {}
    next_index = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            while next_index < len(specs) or in_flight:
                while next_index < len(specs) and len(in_flight) < workers:
                    future = pool.submit(_run_guarded, specs[next_index])
                    in_flight[future] = next_index
                    next_index += 1
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    index = in_flight[future]
                    results[index] = _unwrap(specs[index], future.result())
                    del in_flight[future]
        except BrokenProcessPool as error:
            # A submit that finds the pool already broken has no future yet:
            # then the spec it was submitting is the one to name.
            lost = sorted(in_flight.values()) or [next_index]
            raise ParallelExecutionError(
                [specs[index] for index in lost],
                f"a worker process died: {error}") from error
    return results  # type: ignore[return-value]


def run_series(series: Mapping[str, Sequence[RunSpec]], *,
               max_workers: Optional[int] = None) -> dict[str, list[RunResult]]:
    """Execute every series of a figure or grid in one :func:`run_specs` call.

    Flattening the whole study into one pool keeps workers busy across
    series boundaries (protocols differ a lot in cost); the ordered results
    are then sliced back into their series, each in its own spec order.
    """
    series = {name: list(specs) for name, specs in series.items()}
    results = iter(run_specs([spec for specs in series.values() for spec in specs],
                             max_workers=max_workers))
    return {name: [next(results) for _ in specs] for name, specs in series.items()}


def sweep_specs(protocol: str, client_counts: Sequence[int],
                config: Optional[ClusterConfig] = None,
                workload: Optional[WorkloadParameters] = None, *,
                scenario: Optional[Scenario] = None,
                check_consistency: bool = False,
                label: str = "") -> list[RunSpec]:
    """The specs of one load sweep: one per client count, nothing else varied."""
    config = config or ClusterConfig()
    workload = workload or DEFAULT_WORKLOAD
    return [RunSpec(protocol=protocol,
                    config=config.with_changes(clients_per_dc=clients),
                    workload=workload, label=label, scenario=scenario,
                    check_consistency=check_consistency)
            for clients in client_counts]


__all__ = [
    "ParallelExecutionError",
    "RunSpec",
    "WORKERS_ENV_VAR",
    "resolve_worker_count",
    "run_series",
    "run_specs",
    "sweep_specs",
]

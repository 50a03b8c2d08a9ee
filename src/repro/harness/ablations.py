"""Programmatic access to the design-choice ablations.

The benchmark suite exercises the ablations DESIGN.md calls out (ROT rounds,
clock family, CC-LO garbage collection, stabilization interval) through
these functions, so the studies can also be run from a script or a notebook
without pytest.  Each one describes its runs as
:class:`~repro.harness.parallel.RunSpec` lists and executes them together in
one pool (worker count as in :func:`~repro.harness.parallel.run_specs`).
"""

from __future__ import annotations

from typing import Optional, Sequence, TypeVar

from repro.cluster.config import ClusterConfig
from repro.harness.parallel import RunSpec, run_series, run_specs, sweep_specs
from repro.metrics.collectors import RunResult
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters

Variant = TypeVar("Variant")


def _one_point_each(protocol: str, configs: dict[Variant, ClusterConfig],
                    workload: WorkloadParameters) -> dict[Variant, RunResult]:
    """One run of ``protocol`` per configuration variant, keyed like it."""
    results = run_specs([RunSpec(protocol, config, workload)
                         for config in configs.values()])
    return dict(zip(configs, results))


def rot_rounds_ablation(client_counts: Sequence[int] = (4, 16, 48),
                        config: Optional[ClusterConfig] = None,
                        workload: WorkloadParameters = DEFAULT_WORKLOAD
                        ) -> dict[str, list[RunResult]]:
    """Contrarian with 1½-round versus 2-round ROTs (Section 5.3)."""
    base = config or ClusterConfig.bench_scale()
    return run_series({
        "1.5-rounds": sweep_specs("contrarian", client_counts,
                                  base.with_changes(rot_rounds=1.5), workload),
        "2-rounds": sweep_specs("contrarian", client_counts,
                                base.with_changes(rot_rounds=2.0), workload),
    })


def clock_mode_ablation(clients: int = 16,
                        config: Optional[ClusterConfig] = None,
                        workload: WorkloadParameters = DEFAULT_WORKLOAD
                        ) -> dict[str, RunResult]:
    """Contrarian under HLC, plain logical and physical clocks (Section 4)."""
    base = (config or ClusterConfig.bench_scale()).with_changes(
        clients_per_dc=clients)
    return _one_point_each("contrarian", {
        mode: base.with_changes(clock_mode=mode)
        for mode in ("hlc", "logical", "physical")}, workload)


def cclo_gc_ablation(clients: int = 32,
                     config: Optional[ClusterConfig] = None,
                     workload: WorkloadParameters = DEFAULT_WORKLOAD
                     ) -> dict[str, RunResult]:
    """CC-LO with/without the paper's reader-record optimisations."""
    base = (config or ClusterConfig.bench_scale()).with_changes(
        clients_per_dc=clients)
    return _one_point_each("cc-lo", {
        "optimized": base,
        "long-gc": base.with_changes(cclo_gc_window_ms=5000.0),
        "no-compression": base.with_changes(cclo_one_id_per_client=False),
    }, workload)


def stabilization_interval_ablation(clients: int = 16,
                                    intervals_ms: Sequence[float] = (5.0, 50.0),
                                    config: Optional[ClusterConfig] = None,
                                    workload: WorkloadParameters = DEFAULT_WORKLOAD
                                    ) -> dict[float, RunResult]:
    """Contrarian under different GSS stabilization periods."""
    base = (config or ClusterConfig.bench_scale()).with_changes(
        clients_per_dc=clients)
    return _one_point_each("contrarian", {
        interval: base.with_changes(stabilization_interval_ms=interval)
        for interval in intervals_ms}, workload)


__all__ = [
    "cclo_gc_ablation",
    "clock_mode_ablation",
    "rot_rounds_ablation",
    "stabilization_interval_ablation",
]

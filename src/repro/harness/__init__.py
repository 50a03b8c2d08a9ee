"""Experiment harness: cluster building, runs, load sweeps, figures, tables.

One road from a run description to result rows
----------------------------------------------
:func:`run_experiment` performs one simulated run.  Every multi-run study —
a load sweep, a figure, a table, an ablation — is a list of picklable
:class:`RunSpec` objects (:func:`sweep_specs` describes one load sweep)
executed by :func:`run_specs`, or by :func:`run_series` when the study is
grouped into series; :func:`load_sweep` is ``run_specs(sweep_specs(...))``.
:mod:`repro.harness.parallel` documents the worker count (``max_workers`` >
``REPRO_PARALLEL_WORKERS`` > CPU count), the bit-identical rows for every
worker count and the :class:`ParallelExecutionError` contract.

>>> from repro.harness import run_specs, sweep_specs
>>> results = run_specs(sweep_specs("contrarian", (4, 16, 48)), max_workers=4)

The figure generators, the measured rows of Table 2 and the ablations all
run through these functions; CI's smoke benchmark
(``benchmarks/run_smoke_benchmark.py``) tracks their wall-clock per PR.

Fault scenarios
---------------
Every entry point accepts an optional :class:`~repro.faults.Scenario`
(``run_experiment(..., scenario=...)``, ``RunSpec(scenario=...)``,
``load_sweep(..., scenario=...)``): a deterministic, picklable schedule of
faults (DC partitions, link degradation, slow/paused servers, load spikes,
workload shifts) executed mid-run by a
:class:`~repro.faults.FaultController`.  Results from scenario runs carry
per-phase :class:`~repro.metrics.collectors.PhaseSlice` rows;
:func:`fig_faults` traces all three protocols through a scripted DC
partition with the causal checker asserting zero violations.
"""

from repro.harness.builder import BuiltCluster, build_cluster
from repro.harness.parallel import (
    ParallelExecutionError,
    RunSpec,
    run_series,
    run_specs,
    sweep_specs,
)
from repro.runtime.experiment import RealtimeOutcome, run_realtime_experiment
from repro.harness.runner import ExperimentOutcome, load_sweep, run_experiment
from repro.harness.figures import (
    FigureResult,
    fig_faults,
    figure4_contrarian_vs_cure,
    figure5_default_workload,
    figure6_readers_check_overhead,
    figure7_write_intensity,
    figure8_skew,
    figure9_rot_size,
    section58_value_size,
)
from repro.harness.tables import (
    measure_characterization,
    table1_workloads,
    table2_characterization,
)

__all__ = [
    "BuiltCluster",
    "ExperimentOutcome",
    "FigureResult",
    "ParallelExecutionError",
    "RunSpec",
    "build_cluster",
    "fig_faults",
    "figure4_contrarian_vs_cure",
    "figure5_default_workload",
    "figure6_readers_check_overhead",
    "figure7_write_intensity",
    "figure8_skew",
    "figure9_rot_size",
    "load_sweep",
    "measure_characterization",
    "run_experiment",
    "run_series",
    "run_specs",
    "RealtimeOutcome",
    "run_realtime_experiment",
    "section58_value_size",
    "sweep_specs",
    "table1_workloads",
    "table2_characterization",
]

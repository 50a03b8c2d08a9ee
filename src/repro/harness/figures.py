"""Regeneration of every figure of the paper's evaluation (Section 5).

Each ``figureN_*`` function reruns the corresponding experiment — the same
protocols, the same workload axis, a load sweep over the number of closed-loop
clients — and returns a :class:`FigureResult` holding the measured series plus
a plain-text rendition of the figure's data.

The default parameters use the bench-scale configuration (8 partitions, short
runs); every function accepts an explicit :class:`ClusterConfig` to run at a
larger scale.  Figure 9 defaults to ROT sizes ``(2, 4, 8)`` because the
bench-scale cluster has 8 partitions; pass a 24+-partition configuration and
``rot_sizes=(4, 8, 24)`` to match the paper exactly.

Every figure describes its complete (series x load point) grid as named
lists of :class:`~repro.harness.parallel.RunSpec` and hands it to
:func:`~repro.harness.parallel.run_series`, which runs it over however many
workers :func:`~repro.harness.parallel.resolve_worker_count` grants (pass
``max_workers`` to pin it; one worker runs in-process) and regroups the rows
per series.  The rows are the same for every worker count because each spec
carries its configuration and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.faults.library import dc_partition
from repro.faults.scenario import Scenario
from repro.harness.parallel import run_series, run_specs, sweep_specs
from repro.harness.report import format_series, format_table
from repro.metrics.collectors import RunResult
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters

#: Default client-per-DC counts of a load sweep at bench scale.
DEFAULT_CLIENT_SWEEP: tuple[int, ...] = (4, 12, 32, 64)

#: Protocols traced by the fault figure.
FAULT_FIGURE_PROTOCOLS: tuple[str, ...] = ("contrarian", "cure", "cc-lo")


@dataclass
class FigureResult:
    """The regenerated data behind one figure."""

    name: str
    caption: str
    series: dict[str, list[RunResult]] = field(default_factory=dict)
    extra_rows: list[dict[str, object]] = field(default_factory=list)
    include_p99: bool = False

    def to_text(self) -> str:
        """Render the figure data as aligned text tables."""
        parts = [f"{self.name}: {self.caption}",
                 format_series(self.series, include_p99=self.include_p99)]
        if self.extra_rows:
            headers: list[str] = []
            for row in self.extra_rows:
                headers.extend(column for column in row if column not in headers)
            rows = [[row.get(column, "") for column in headers]
                    for row in self.extra_rows]
            parts.append(format_table(headers, rows))
        return "\n\n".join(parts)


def _base_config(config: Optional[ClusterConfig], num_dcs: int) -> ClusterConfig:
    base = config or ClusterConfig.bench_scale()
    if base.num_dcs != num_dcs:
        base = base.with_changes(num_dcs=num_dcs)
    return base


def _contrarian_vs_cclo(
        client_counts: Sequence[int],
        points: dict[str, tuple[ClusterConfig, WorkloadParameters]],
        label: str, max_workers: Optional[int]) -> dict[str, list[RunResult]]:
    """Sweep Contrarian and CC-LO at every point; series ``<protocol>-<point>``."""
    return run_series({
        f"{protocol}-{point}": sweep_specs(protocol, client_counts, config,
                                           workload, label=label)
        for point, (config, workload) in points.items()
        for protocol in ("contrarian", "cc-lo")}, max_workers=max_workers)


# ---------------------------------------------------------------------------
# Figure 4 — Contrarian (1 1/2 vs 2 rounds) vs Cure, 2 DCs, default workload
# ---------------------------------------------------------------------------
def figure4_contrarian_vs_cure(
        client_counts: Sequence[int] = DEFAULT_CLIENT_SWEEP,
        config: Optional[ClusterConfig] = None,
        workload: WorkloadParameters = DEFAULT_WORKLOAD,
        max_workers: Optional[int] = None) -> FigureResult:
    """Throughput vs average ROT latency for Contrarian variants and Cure."""
    base = _base_config(config, num_dcs=2)
    series = run_series({
        "contrarian-1.5-rounds": sweep_specs(
            "contrarian", client_counts, base.with_changes(rot_rounds=1.5),
            workload, label="fig4"),
        "contrarian-2-rounds": sweep_specs(
            "contrarian", client_counts, base.with_changes(rot_rounds=2.0),
            workload, label="fig4"),
        "cure": sweep_specs("cure", client_counts, base, workload, label="fig4"),
    }, max_workers=max_workers)
    return FigureResult(
        name="Figure 4",
        caption=("Contrarian vs Cure, default workload, 2 DCs: nonblocking "
                 "ROTs beat Cure's clock-skew-bound latency; 1 1/2 rounds is "
                 "faster at low load, 2 rounds peaks slightly higher."),
        series=series)


# ---------------------------------------------------------------------------
# Figure 5 — Contrarian vs CC-LO, default workload, 1 DC and 2 DCs
# ---------------------------------------------------------------------------
def figure5_default_workload(
        client_counts: Sequence[int] = DEFAULT_CLIENT_SWEEP,
        config: Optional[ClusterConfig] = None,
        workload: WorkloadParameters = DEFAULT_WORKLOAD,
        max_workers: Optional[int] = None) -> FigureResult:
    """Average and tail ROT latency vs throughput for Contrarian and CC-LO."""
    series = _contrarian_vs_cclo(client_counts, {
        f"{num_dcs}dc": (_base_config(config, num_dcs=num_dcs), workload)
        for num_dcs in (1, 2)}, "fig5", max_workers)
    return FigureResult(
        name="Figure 5",
        caption=("Contrarian vs CC-LO, default workload: CC-LO is ahead only "
                 "at the lowest load; the readers-check overhead costs it "
                 "throughput and, under load, latency — especially at the tail."),
        series=series, include_p99=True)


# ---------------------------------------------------------------------------
# Figure 6 — readers-check overhead grows linearly with the number of clients
# ---------------------------------------------------------------------------
def figure6_readers_check_overhead(
        client_counts: Sequence[int] = (8, 16, 32, 64),
        config: Optional[ClusterConfig] = None,
        workload: WorkloadParameters = DEFAULT_WORKLOAD,
        max_workers: Optional[int] = None) -> FigureResult:
    """ROT ids collected per readers check as a function of client count."""
    base = _base_config(config, num_dcs=1)
    results = run_specs(sweep_specs("cc-lo", client_counts, base, workload,
                                    label="fig6"), max_workers=max_workers)
    extra_rows = []
    for result in results:
        extra_rows.append({
            "clients": result.clients,
            "distinct_rot_ids_per_check": round(
                result.overhead.average_distinct_ids_per_check(), 1),
            "cumulative_rot_ids_per_check": round(
                result.overhead.average_cumulative_ids_per_check(), 1),
            "partitions_contacted_per_check": round(
                result.overhead.average_partitions_per_check(), 1),
            "readers_checks": result.overhead.readers_checks,
        })
    return FigureResult(
        name="Figure 6",
        caption=("ROT ids collected per readers check in CC-LO (1 DC, default "
                 "workload): both the distinct and the cumulative counts grow "
                 "linearly with the number of clients, matching Theorem 1."),
        series={"cc-lo": results}, extra_rows=extra_rows)


# ---------------------------------------------------------------------------
# Figure 7 — effect of the write/read ratio w
# ---------------------------------------------------------------------------
def figure7_write_intensity(
        client_counts: Sequence[int] = DEFAULT_CLIENT_SWEEP,
        write_ratios: Sequence[float] = (0.01, 0.05, 0.1),
        num_dcs: int = 1,
        config: Optional[ClusterConfig] = None,
        max_workers: Optional[int] = None) -> FigureResult:
    """Contrarian vs CC-LO while varying the write intensity."""
    base = _base_config(config, num_dcs=num_dcs)
    series = _contrarian_vs_cclo(client_counts, {
        f"w{write_ratio}": (
            base, DEFAULT_WORKLOAD.with_changes(write_ratio=write_ratio))
        for write_ratio in write_ratios}, "fig7", max_workers)
    return FigureResult(
        name="Figure 7",
        caption=(f"Effect of write intensity ({num_dcs} DC): higher w hurts "
                 "CC-LO disproportionately because readers checks run more "
                 "often; w=0.01 is the only regime where CC-LO stays close."),
        series=series)


# ---------------------------------------------------------------------------
# Figure 8 — effect of the skew in data popularity
# ---------------------------------------------------------------------------
def figure8_skew(
        client_counts: Sequence[int] = DEFAULT_CLIENT_SWEEP,
        skews: Sequence[float] = (0.0, 0.8, 0.99),
        config: Optional[ClusterConfig] = None,
        max_workers: Optional[int] = None) -> FigureResult:
    """Contrarian vs CC-LO while varying the zipfian skew (single DC)."""
    base = _base_config(config, num_dcs=1)
    series = _contrarian_vs_cclo(client_counts, {
        f"z{skew}": (
            base, DEFAULT_WORKLOAD.with_changes(skew=skew))
        for skew in skews}, "fig8", max_workers)
    return FigureResult(
        name="Figure 8",
        caption=("Effect of data-popularity skew (1 DC): skew barely affects "
                 "Contrarian but hampers CC-LO, whose hot keys accumulate "
                 "long, fresh old-reader records."),
        series=series)


# ---------------------------------------------------------------------------
# Figure 9 — effect of the number of partitions involved in a ROT
# ---------------------------------------------------------------------------
def figure9_rot_size(
        client_counts: Sequence[int] = DEFAULT_CLIENT_SWEEP,
        rot_sizes: Sequence[int] = (2, 4, 8),
        config: Optional[ClusterConfig] = None,
        max_workers: Optional[int] = None) -> FigureResult:
    """Contrarian vs CC-LO while varying the ROT size p (single DC)."""
    base = _base_config(config, num_dcs=1)
    series = _contrarian_vs_cclo(client_counts, {
        f"p{rot_size}": (
            base, DEFAULT_WORKLOAD.with_changes(rot_size=rot_size))
        for rot_size in rot_sizes}, "fig9", max_workers)
    return FigureResult(
        name="Figure 9",
        caption=("Effect of ROT size (1 DC): CC-LO's low-load latency edge "
                 "shrinks as p grows because contacting more partitions "
                 "amortises Contrarian's extra communication step."),
        series=series)


# ---------------------------------------------------------------------------
# Section 5.8 — effect of the value size (no figure in the paper)
# ---------------------------------------------------------------------------
def section58_value_size(
        client_counts: Sequence[int] = DEFAULT_CLIENT_SWEEP,
        value_sizes: Sequence[int] = (8, 128, 2048),
        config: Optional[ClusterConfig] = None,
        max_workers: Optional[int] = None) -> FigureResult:
    """Contrarian vs CC-LO while varying the value size (single DC)."""
    base = _base_config(config, num_dcs=1)
    series = _contrarian_vs_cclo(client_counts, {
        f"b{value_size}": (
            base, DEFAULT_WORKLOAD.with_changes(value_size=value_size))
        for value_size in value_sizes}, "sec5.8", max_workers)
    return FigureResult(
        name="Section 5.8",
        caption=("Effect of value size (1 DC): larger values add CPU and "
                 "network cost for both systems, shrinking the relative gap; "
                 "Contrarian stays ahead or on par."),
        series=series)


# ---------------------------------------------------------------------------
# Fault figure — protocols traced through a scripted DC partition
# ---------------------------------------------------------------------------
def fig_faults(protocols: Sequence[str] = FAULT_FIGURE_PROTOCOLS,
               clients: int = 12,
               config: Optional[ClusterConfig] = None,
               workload: WorkloadParameters = DEFAULT_WORKLOAD,
               scenario: Optional[Scenario] = None,
               check_consistency: bool = True,
               max_workers: Optional[int] = None) -> FigureResult:
    """Latency/throughput before, during and after a DC partition.

    Not a figure of the paper: the paper evaluates a healthy static cluster,
    while this figure stresses the same three designs with a scripted fault
    scenario (default: partition DC 1 away mid-run, then heal it) and slices
    the metrics per phase.  The causal-consistency checker runs inside every
    simulation (``check_consistency=True``) and the run *fails* on any
    violation — causal consistency must hold through partitions; only
    liveness (visibility of remote updates) may degrade.
    """
    base = config or ClusterConfig.test_scale(
        num_dcs=2, clients_per_dc=clients, duration_seconds=2.4,
        warmup_seconds=0.2)
    if base.num_dcs < 2:
        base = base.with_changes(num_dcs=2)
    scenario = scenario or dc_partition(start=0.8, heal=1.6, dc=1)
    series = run_series({
        protocol: sweep_specs(protocol, (clients,), base, workload,
                              scenario=scenario,
                              check_consistency=check_consistency,
                              label="fig-faults")
        for protocol in protocols}, max_workers=max_workers)
    extra_rows: list[dict[str, object]] = []
    for protocol, results in series.items():
        for result in results:
            for phase in result.phases:
                extra_rows.append({"protocol": protocol, **phase.as_row()})
    return FigureResult(
        name="Fault scenario",
        caption=(f"{scenario.name or 'scripted faults'}: per-phase behaviour "
                 "of the three designs under the scenario, with the causal "
                 "checker asserting zero violations throughout.  Expect "
                 "remote-update visibility (not safety) to degrade during "
                 "the partition and recover after the heal."),
        series=series, extra_rows=extra_rows, include_p99=True)


__all__ = [
    "DEFAULT_CLIENT_SWEEP",
    "FAULT_FIGURE_PROTOCOLS",
    "FigureResult",
    "fig_faults",
    "figure4_contrarian_vs_cure",
    "figure5_default_workload",
    "figure6_readers_check_overhead",
    "figure7_write_intensity",
    "figure8_skew",
    "figure9_rot_size",
    "section58_value_size",
]

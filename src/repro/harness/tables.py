"""Regeneration of the paper's tables.

* **Table 1** — the workload-parameter grid; rendered from
  :mod:`repro.workload.parameters`.
* **Table 2** — the characterisation of CC systems with ROT support.  The
  static columns (rounds, versions, blocking, metadata) come from the protocol
  registry; when measured runs are supplied the table is extended with the
  overhead actually observed in simulation (messages per PUT, ROT ids per
  readers check), which is the experimental counterpart of the ``O(N)`` /
  ``O(K)`` entries of the paper's table.

:func:`measure_characterization` produces those measured rows by running one
load point per implemented protocol through
:func:`repro.harness.parallel.run_specs`, so regenerating the full measured
table costs one (parallel) round of simulations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.core.registry import (
    implemented_protocols,
    protocol_properties,
    surveyed_properties,
)
from repro.harness.parallel import RunSpec, run_specs
from repro.harness.report import format_table
from repro.metrics.collectors import RunResult
from repro.workload.parameters import (
    DEFAULT_WORKLOAD,
    ROT_SIZES,
    SKEWS,
    VALUE_SIZES,
    WRITE_RATIOS,
    WorkloadParameters,
)


def table1_workloads() -> str:
    """Render Table 1 (workload parameters; defaults marked with ``*``)."""
    def mark(values: Sequence[object], default: object) -> str:
        return ", ".join(f"{value}*" if value == default else f"{value}"
                         for value in values)

    rows = [
        ["Write/read ratio (w)", "#PUTs/(#PUTs+#reads)",
         mark(WRITE_RATIOS, DEFAULT_WORKLOAD.write_ratio)],
        ["Size of a ROT (p)", "#partitions involved in a ROT",
         mark(ROT_SIZES, DEFAULT_WORKLOAD.rot_size)],
        ["Size of values (b)", "value size in bytes (keys take 8 bytes)",
         mark(VALUE_SIZES, DEFAULT_WORKLOAD.value_size)],
        ["Skew in key popularity (z)", "zipfian parameter",
         mark(SKEWS, DEFAULT_WORKLOAD.skew)],
    ]
    return format_table(["Parameter", "Definition", "Values (default *)"], rows)


def measure_characterization(
        protocols: Optional[Sequence[str]] = None,
        clients: int = 32,
        config: Optional[ClusterConfig] = None,
        workload: Optional[WorkloadParameters] = None, *,
        max_workers: Optional[int] = None) -> dict[str, RunResult]:
    """Measure one load point per protocol for Table 2's measured columns.

    The runs are independent, so :func:`~repro.harness.parallel.run_specs`
    fans them out over worker processes; the mapping is keyed by protocol
    name in registry order and can be passed straight to
    :func:`table2_characterization`.
    """
    protocols = list(protocols) if protocols is not None else implemented_protocols()
    base = (config or ClusterConfig.bench_scale()).with_changes(
        clients_per_dc=clients)
    specs = [RunSpec(protocol=name, config=base,
                     workload=workload or DEFAULT_WORKLOAD, label="table2")
             for name in protocols]
    results = run_specs(specs, max_workers=max_workers)
    return dict(zip(protocols, results))


def table2_characterization(
        measured: Optional[dict[str, RunResult]] = None) -> str:
    """Render Table 2 (characterisation of CC systems with ROT support).

    Parameters
    ----------
    measured:
        Optional mapping from implemented protocol name to a measured
        :class:`RunResult`; when given, measured overhead columns are appended
        for those rows.
    """
    headers = ["System", "Nonblocking", "#Rounds", "#Versions",
               "Write cost c<->s", "Write cost s<->s",
               "Metadata c<->s", "Metadata s<->s", "Clock", "LO"]
    rows: list[list[object]] = []
    for properties in surveyed_properties():
        rows.append(_static_row(properties))
    for name in implemented_protocols():
        rows.append(_static_row(protocol_properties(name)))
    text = format_table(headers, rows)

    if measured:
        measured_headers = ["System", "throughput (Kops/s)", "ROT avg (ms)",
                            "PUT avg (ms)", "msgs sent",
                            "ROT ids / readers check"]
        measured_rows = []
        for name, result in measured.items():
            measured_rows.append([
                protocol_properties(name).name,
                f"{result.throughput_kops:.1f}",
                f"{result.rot_mean_ms:.3f}",
                f"{result.put_mean_ms:.3f}",
                result.overhead.messages_sent,
                f"{result.overhead.average_distinct_ids_per_check():.1f}",
            ])
        text += "\n\nMeasured overhead (bench-scale simulation):\n"
        text += format_table(measured_headers, measured_rows)
    return text


def _static_row(properties) -> list[object]:
    return [
        properties.name,
        "yes" if properties.nonblocking else "no",
        properties.rot_rounds,
        properties.rot_versions,
        properties.write_cost_client_server,
        properties.write_cost_server_server,
        properties.metadata_client_server,
        properties.metadata_server_server,
        properties.clock,
        "yes" if properties.latency_optimal else "no",
    ]


__all__ = ["measure_characterization", "table1_workloads",
           "table2_characterization"]

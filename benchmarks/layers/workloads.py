"""The four workloads, by name.

The three realtime (``rt``) workloads share one topology and differ only in
the property their name states; the simulator workload runs all three
protocols.  Why each exists is recorded in ``BENCHMARK.json`` (``why``) and
in the README.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.config import ClusterConfig
from repro.workload.parameters import WorkloadParameters

#: Closed-loop clients per DC in the loaded window / in the idle window.
LOADED_CLIENTS_PER_DC = 8
IDLE_CLIENTS_PER_DC = 1

SIM_PROTOCOLS = ("contrarian", "cure", "cc-lo")
SIM_CLIENTS_PER_DC = 16


@dataclass(frozen=True)
class RtWorkload:
    """One realtime workload: protocol, transport, write ratio."""

    name: str
    protocol: str
    transport: str  # "inproc" | "tcp"
    write_ratio: float

    def config(self, seed: int) -> ClusterConfig:
        # 2 DCs x 4 partitions, 1000 keys per partition; warmup is handled by
        # the benchmark's own windows, so the registry's filter is off.
        return ClusterConfig(num_partitions=4, num_dcs=2,
                             clients_per_dc=LOADED_CLIENTS_PER_DC,
                             keys_per_partition=1000, warmup_seconds=0.0,
                             seed=seed)

    def parameters(self) -> WorkloadParameters:
        # zipf 0.99, ROT size 4, 8-byte values: the paper's defaults.
        return WorkloadParameters(write_ratio=self.write_ratio)


RT_WORKLOADS = {
    workload.name: workload for workload in (
        RtWorkload("inproc-contrarian-read", "contrarian", "inproc", 0.05),
        RtWorkload("inproc-cclo-write", "cc-lo", "inproc", 0.1),
        RtWorkload("tcp-contrarian-read", "contrarian", "tcp", 0.05),
    )
}

SIM_WORKLOAD = "sim-three-protocols"

WORKLOAD_NAMES = (*RT_WORKLOADS, SIM_WORKLOAD)


def sim_config(seed: int, clients_per_dc: int,
               duration_seconds: float) -> ClusterConfig:
    """Bench-scale 2-DC simulator configuration of one experiment."""
    return ClusterConfig.bench_scale(
        num_dcs=2, clients_per_dc=clients_per_dc,
        warmup_seconds=0.0, duration_seconds=duration_seconds, seed=seed)

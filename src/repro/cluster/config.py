"""Cluster and run configuration.

:class:`ClusterConfig` gathers every knob an experiment needs: topology
(partitions, data centers, clients), the CPU cost model, the network latency
model, the clock-skew model, protocol timers (stabilization period, CC-LO
reader GC window) and the run durations.  The defaults are the *bench-scale*
configuration documented in EXPERIMENTS.md: a scaled-down version of the
paper's 32-partition / 2-DC testbed that preserves the qualitative behaviour
while staying cheap enough to simulate in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.clocks.physical import SkewModel
from repro.errors import ConfigurationError
from repro.sim.costs import CostModel
from repro.sim.network import LatencyModel


@dataclass(frozen=True)
class ClusterConfig:
    """Full configuration of a simulated cluster run.

    Attributes
    ----------
    num_partitions:
        Number of partitions per DC (the paper uses 32; the bench-scale
        default is 8).
    num_dcs:
        Number of data centers (1 or 2 in the paper's evaluation).
    clients_per_dc:
        Number of closed-loop client threads per DC.
    keys_per_partition:
        Size of the keyspace on each partition (paper: 1M; scaled down so the
        zipfian sampler and store stay small).
    stabilization_interval_ms:
        Period of the GSS stabilization protocol (paper: 5 ms), which also
        moves the vector servers' version-GC floor; no setting caps chains.
    heartbeat_interval_ms:
        Idle partitions advertise their clock at this period so the GSS keeps
        progressing (folded into the stabilization broadcast).
    cclo_gc_window_ms:
        CC-LO's reader-record and version garbage-collection window (paper's
        optimised value: 500 ms; the original COPS-SNOW used 5000 ms).
    cclo_one_id_per_client:
        Whether readers-check responses are compressed to at most one ROT id
        per client (the paper's second optimisation).
    warmup_seconds / duration_seconds:
        Measurement window; operations completing before the warmup are
        excluded from the statistics.
    rot_rounds:
        Contrarian only: 1.5 (one-and-a-half rounds, default) or 2.0.
    clock_mode:
        Contrarian only: "hlc" (default), "logical" or "physical"; used by the
        clock ablation.  Cure always uses physical clocks, CC-LO logical ones.
    seed:
        Master seed for all randomness in the run.
    """

    num_partitions: int = 8
    num_dcs: int = 1
    clients_per_dc: int = 32
    keys_per_partition: int = 1000
    cost_model: CostModel = field(default_factory=CostModel)
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    skew_model: SkewModel = field(default_factory=SkewModel)
    stabilization_interval_ms: float = 5.0
    heartbeat_interval_ms: float = 5.0
    cclo_gc_window_ms: float = 500.0
    cclo_one_id_per_client: bool = True
    warmup_seconds: float = 0.25
    duration_seconds: float = 1.5
    rot_rounds: float = 1.5
    clock_mode: str = "hlc"
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        if self.num_dcs < 1:
            raise ConfigurationError("num_dcs must be >= 1")
        if self.clients_per_dc < 1:
            raise ConfigurationError("clients_per_dc must be >= 1")
        if self.keys_per_partition < 1:
            raise ConfigurationError("keys_per_partition must be >= 1")
        if self.duration_seconds <= self.warmup_seconds:
            raise ConfigurationError(
                "duration_seconds must be greater than warmup_seconds")
        if self.rot_rounds not in (1.5, 2.0):
            raise ConfigurationError("rot_rounds must be 1.5 or 2.0")
        if self.clock_mode not in ("hlc", "logical", "physical"):
            raise ConfigurationError(
                f"clock_mode must be 'hlc', 'logical' or 'physical', got {self.clock_mode!r}")
        if self.stabilization_interval_ms <= 0:
            raise ConfigurationError("stabilization_interval_ms must be positive")
        if self.cclo_gc_window_ms <= 0:
            raise ConfigurationError("cclo_gc_window_ms must be positive")

    # ------------------------------------------------------------ convenience
    @property
    def total_clients(self) -> int:
        """Total number of closed-loop clients across all DCs."""
        return self.clients_per_dc * self.num_dcs

    @property
    def measurement_seconds(self) -> float:
        """Length of the measurement window (duration minus warmup)."""
        return self.duration_seconds - self.warmup_seconds

    def with_changes(self, **changes: object) -> "ClusterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    @staticmethod
    def paper_scale(**overrides: object) -> "ClusterConfig":
        """The configuration closest to the paper's testbed.

        32 partitions, 1M keys per partition and 90-second runs; only usable
        for targeted experiments because a full load sweep at this scale is
        slow in pure Python.
        """
        base = ClusterConfig(num_partitions=32, keys_per_partition=1_000_000,
                             clients_per_dc=256, warmup_seconds=5.0,
                             duration_seconds=90.0)
        return base.with_changes(**overrides) if overrides else base

    @staticmethod
    def bench_scale(**overrides: object) -> "ClusterConfig":
        """The configuration used by the benchmark suite.

        Uses the default 8-partition topology but scales the CPU cost model up
        by 4x so that load sweeps saturate after a few thousand operations —
        cheap enough to re-simulate every figure in pure Python while keeping
        the relative costs of the protocols (and hence every qualitative
        result) unchanged.  See EXPERIMENTS.md for the mapping to the paper's
        absolute numbers.
        """
        base = ClusterConfig(cost_model=CostModel().scaled(4.0),
                             keys_per_partition=400,
                             warmup_seconds=0.2, duration_seconds=1.0)
        return base.with_changes(**overrides) if overrides else base

    @staticmethod
    def test_scale(**overrides: object) -> "ClusterConfig":
        """A tiny configuration for unit and integration tests."""
        base = ClusterConfig(num_partitions=4, clients_per_dc=8,
                             keys_per_partition=64, warmup_seconds=0.1,
                             duration_seconds=0.6)
        return base.with_changes(**overrides) if overrides else base


__all__ = ["ClusterConfig"]

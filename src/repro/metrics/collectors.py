"""Run-level metric aggregation.

A :class:`MetricsRegistry` is shared by all clients and servers of one run.
Clients record per-operation latencies (split by operation type and excluding
the warmup window), servers contribute their overhead counters, and at the end
of the run the registry condenses everything into a :class:`RunResult` — the
row format used by the figure/table harness.

Runs that execute a fault scenario additionally slice their measurements into
*phases*: the fault controller opens a phase at every scheduled event
(:meth:`MetricsRegistry.begin_phase`) and records fault gauges into it
(:meth:`MetricsRegistry.record_gauge`), and the finalised :class:`RunResult`
carries one :class:`PhaseSlice` per phase.  Scenario-free runs never start a
phase, so their results are unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.metrics.overheads import OverheadCounters

#: Version of the ``as_json_dict`` payload layout.  Bump when the layout
#: changes; ``RunResult.from_json_dict`` accepts every version listed in
#: :data:`SUPPORTED_SCHEMA_VERSIONS`.  Version 3 added the optional
#: ``visibility_trace`` summary (absent in earlier payloads).
SCHEMA_VERSION = 3
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)


@dataclass(frozen=True)
class PhaseSlice:
    """The measurements of one scenario phase (e.g. before/during/after a
    partition).

    ``start``/``end`` are simulated seconds; throughput and latencies cover
    operations that *completed* inside the window (and after the warmup, like
    the run-level statistics).  ``gauges`` summarises the fault gauges sampled
    during the phase as ``{"<gauge>_max": ..., "<gauge>_mean": ...}`` — e.g.
    stalled ROTs, remote-visibility lag and CC-LO reader-record growth.
    """

    name: str
    start: float
    end: float
    rots_completed: int
    puts_completed: int
    throughput_kops: float
    rot_latency: LatencySummary
    put_latency: LatencySummary
    gauges: dict[str, float] = field(default_factory=dict)

    def as_json_dict(self) -> dict[str, object]:
        """Serialise into plain JSON-compatible types."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "rots_completed": self.rots_completed,
            "puts_completed": self.puts_completed,
            "throughput_kops": self.throughput_kops,
            "rot_latency": asdict(self.rot_latency),
            "put_latency": asdict(self.put_latency),
            "gauges": dict(self.gauges),
        }

    @staticmethod
    def from_json_dict(payload: dict[str, object]) -> "PhaseSlice":
        """Inverse of :meth:`as_json_dict`."""
        return PhaseSlice(
            name=str(payload["name"]),
            start=float(payload["start"]),  # type: ignore[arg-type]
            end=float(payload["end"]),  # type: ignore[arg-type]
            rots_completed=int(payload["rots_completed"]),  # type: ignore[arg-type]
            puts_completed=int(payload["puts_completed"]),  # type: ignore[arg-type]
            throughput_kops=float(payload["throughput_kops"]),  # type: ignore[arg-type]
            rot_latency=LatencySummary(**payload["rot_latency"]),  # type: ignore[arg-type]
            put_latency=LatencySummary(**payload["put_latency"]),  # type: ignore[arg-type]
            gauges=dict(payload.get("gauges", {})),  # type: ignore[arg-type]
        )

    def as_row(self) -> dict[str, object]:
        """Flatten into a dictionary suitable for tabular reports."""
        row: dict[str, object] = {
            "phase": self.name,
            "window_s": f"{self.start:.2f}-{self.end:.2f}",
            "throughput_kops": round(self.throughput_kops, 2),
            "rot_avg_ms": round(self.rot_latency.mean_ms, 3),
            "rot_p99_ms": round(self.rot_latency.p99_ms, 3),
            "put_avg_ms": round(self.put_latency.mean_ms, 3),
        }
        for gauge in sorted(self.gauges):
            if gauge.endswith("_max"):
                row[gauge] = round(self.gauges[gauge], 3)
        return row


@dataclass(frozen=True)
class RunResult:
    """The measured outcome of one simulated run.

    Throughput follows the paper's definition: completed PUTs plus completed
    ROTs per second of measurement window.  ``phases`` is empty unless the run
    executed a fault scenario.
    """

    protocol: str
    num_dcs: int
    clients: int
    throughput_kops: float
    rot_latency: LatencySummary
    put_latency: LatencySummary
    rots_completed: int
    puts_completed: int
    overhead: OverheadCounters
    cpu_utilization: float
    label: str = ""
    phases: tuple[PhaseSlice, ...] = ()
    #: Per-write issue-to-remote-visibility lag distribution (the paper's
    #: update-visibility metric, Fig. 2), assembled from the repro.obs
    #: timeline; None unless the run traced.
    visibility_trace: Optional[LatencySummary] = None

    @property
    def rot_mean_ms(self) -> float:
        """Average ROT latency in milliseconds (Figure 4/5/7/8/9 y-axis)."""
        return self.rot_latency.mean_ms

    @property
    def rot_p99_ms(self) -> float:
        """99th-percentile ROT latency in milliseconds (Figure 5b)."""
        return self.rot_latency.p99_ms

    @property
    def put_mean_ms(self) -> float:
        """Average PUT latency in milliseconds (Section 5.2 aside)."""
        return self.put_latency.mean_ms

    def phase(self, name: str) -> PhaseSlice:
        """The (last) phase slice called ``name``; raises if absent."""
        for candidate in reversed(self.phases):
            if candidate.name == name:
                return candidate
        raise KeyError(f"run has no phase {name!r}; "
                       f"phases: {[p.name for p in self.phases]}")

    def as_json_dict(self) -> dict[str, object]:
        """Serialise into plain JSON-compatible types.

        Used by the CI benchmarks (``BENCH_smoke.json``, ``BENCH_faults.json``)
        and any other consumer that persists result rows across processes or
        runs; :meth:`from_json_dict` is the inverse.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "protocol": self.protocol,
            "num_dcs": self.num_dcs,
            "clients": self.clients,
            "throughput_kops": self.throughput_kops,
            "rot_latency": asdict(self.rot_latency),
            "put_latency": asdict(self.put_latency),
            "rots_completed": self.rots_completed,
            "puts_completed": self.puts_completed,
            "overhead": asdict(self.overhead),
            "cpu_utilization": self.cpu_utilization,
            "label": self.label,
            "phases": [phase.as_json_dict() for phase in self.phases],
            "visibility_trace": (asdict(self.visibility_trace)
                                 if self.visibility_trace is not None
                                 else None),
        }

    @staticmethod
    def from_json_dict(payload: dict[str, object]) -> "RunResult":
        """Reconstruct a result row from :meth:`as_json_dict` output.

        Accepts every schema version in :data:`SUPPORTED_SCHEMA_VERSIONS`
        (version 1 payloads carry no ``phases``).  Every field round-trips
        exactly, which is what lets persisted ``BENCH_*.json`` artifacts be
        reloaded and diffed.
        """
        version = payload.get("schema_version", 1)
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise ValueError(
                f"unsupported RunResult schema version {version!r}; "
                f"supported: {SUPPORTED_SCHEMA_VERSIONS}")
        return RunResult(
            protocol=str(payload["protocol"]),
            num_dcs=int(payload["num_dcs"]),  # type: ignore[arg-type]
            clients=int(payload["clients"]),  # type: ignore[arg-type]
            throughput_kops=float(payload["throughput_kops"]),  # type: ignore[arg-type]
            rot_latency=LatencySummary(**payload["rot_latency"]),  # type: ignore[arg-type]
            put_latency=LatencySummary(**payload["put_latency"]),  # type: ignore[arg-type]
            rots_completed=int(payload["rots_completed"]),  # type: ignore[arg-type]
            puts_completed=int(payload["puts_completed"]),  # type: ignore[arg-type]
            overhead=OverheadCounters(**payload["overhead"]),  # type: ignore[arg-type]
            cpu_utilization=float(payload["cpu_utilization"]),  # type: ignore[arg-type]
            label=str(payload.get("label", "")),
            phases=tuple(PhaseSlice.from_json_dict(phase)  # type: ignore[arg-type]
                         for phase in payload.get("phases", ())),
            visibility_trace=(
                LatencySummary(**payload["visibility_trace"])  # type: ignore[arg-type]
                if payload.get("visibility_trace") is not None else None),
        )

    def as_row(self) -> dict[str, object]:
        """Flatten into a dictionary suitable for tabular reports."""
        return {
            "protocol": self.protocol,
            "dcs": self.num_dcs,
            "clients": self.clients,
            "throughput_kops": round(self.throughput_kops, 2),
            "rot_avg_ms": round(self.rot_latency.mean_ms, 3),
            "rot_p99_ms": round(self.rot_latency.p99_ms, 3),
            "put_avg_ms": round(self.put_latency.mean_ms, 3),
            "rots": self.rots_completed,
            "puts": self.puts_completed,
            "cpu_util": round(self.cpu_utilization, 3),
            "readers_check_ids_distinct": round(
                self.overhead.average_distinct_ids_per_check(), 1),
            "readers_check_ids_cumulative": round(
                self.overhead.average_cumulative_ids_per_check(), 1),
        }


class _PhaseAccumulator:
    """Mutable per-phase sink the registry fills while a scenario runs."""

    __slots__ = ("name", "start", "rot_latencies", "put_latencies",
                 "rots_completed", "puts_completed", "gauge_samples")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.rot_latencies = LatencyRecorder()
        self.put_latencies = LatencyRecorder()
        self.rots_completed = 0
        self.puts_completed = 0
        self.gauge_samples: dict[str, list[float]] = {}

    def finalize(self, end: float, warmup_seconds: float) -> PhaseSlice:
        # Operations completing during warmup are never recorded, so the
        # effective measurement window of a phase starts no earlier than the
        # warmup boundary.
        effective_start = max(self.start, warmup_seconds)
        window = max(end - effective_start, 0.0)
        operations = self.rots_completed + self.puts_completed
        throughput = operations / window if window > 0 else 0.0
        gauges: dict[str, float] = {}
        for name, samples in sorted(self.gauge_samples.items()):
            if samples:
                gauges[f"{name}_max"] = max(samples)
                gauges[f"{name}_mean"] = sum(samples) / len(samples)
        return PhaseSlice(
            name=self.name, start=self.start, end=end,
            rots_completed=self.rots_completed,
            puts_completed=self.puts_completed,
            throughput_kops=throughput / 1000.0,
            rot_latency=self.rot_latencies.summary(),
            put_latency=self.put_latencies.summary(),
            gauges=gauges)


@dataclass
class MetricsRegistry:
    """Mutable metric sink shared by every node of a run."""

    warmup_seconds: float = 0.0
    rot_latencies: LatencyRecorder = field(default_factory=LatencyRecorder)
    put_latencies: LatencyRecorder = field(default_factory=LatencyRecorder)
    rots_completed: int = 0
    puts_completed: int = 0
    rots_issued: int = 0
    puts_issued: int = 0
    _phases: list[_PhaseAccumulator] = field(default_factory=list, repr=False)

    def record_rot(self, started_at: float, completed_at: float) -> None:
        """Record a completed ROT (ignored if it completed during warmup)."""
        if completed_at < self.warmup_seconds:
            return
        self.rots_completed += 1
        self.rot_latencies.record(completed_at - started_at)
        if self._phases:
            phase = self._phases[-1]
            phase.rots_completed += 1
            phase.rot_latencies.record(completed_at - started_at)

    def record_put(self, started_at: float, completed_at: float) -> None:
        """Record a completed PUT (ignored if it completed during warmup)."""
        if completed_at < self.warmup_seconds:
            return
        self.puts_completed += 1
        self.put_latencies.record(completed_at - started_at)
        if self._phases:
            phase = self._phases[-1]
            phase.puts_completed += 1
            phase.put_latencies.record(completed_at - started_at)

    def note_issue(self, is_put: bool) -> None:
        """Count an issued operation (diagnostics; includes warmup)."""
        if is_put:
            self.puts_issued += 1
        else:
            self.rots_issued += 1

    def absorb(self, *, rot_samples, put_samples,
               rots_issued: int = 0, puts_issued: int = 0) -> None:
        """Fold a worker process's shipped measurements into this registry.

        The worker already applied its warmup filter, so samples are folded
        in verbatim (completed counts equal sample counts by construction).
        """
        self.rots_completed += len(rot_samples)
        self.puts_completed += len(put_samples)
        self.rot_latencies.extend(rot_samples)
        self.put_latencies.extend(put_samples)
        self.rots_issued += rots_issued
        self.puts_issued += puts_issued

    # ----------------------------------------------------------------- phases
    def begin_phase(self, name: str, now: float) -> None:
        """Open a new metric phase at simulated time ``now``.

        Called by the fault controller; everything recorded from here on is
        attributed to the new phase (the previous one ends at ``now``).
        Consecutive ``begin_phase`` calls at the same instant replace the
        still-empty phase instead of leaving a zero-width slice behind.
        """
        if self._phases and self._phases[-1].start == now:
            self._phases[-1] = _PhaseAccumulator(name, now)
            return
        self._phases.append(_PhaseAccumulator(name, now))

    def record_gauge(self, name: str, value: float) -> None:
        """Record one fault-gauge sample into the current phase (if any)."""
        if self._phases:
            self._phases[-1].gauge_samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------ final
    def finalize(self, *, protocol: str, num_dcs: int, clients: int,
                 measurement_seconds: float, overhead: OverheadCounters,
                 cpu_utilization: float, label: str = "",
                 visibility_trace: Optional[LatencySummary] = None
                 ) -> RunResult:
        """Produce the immutable result row for this run.

        Throughput counts operations, not individual reads, as the paper
        does.  ``visibility_trace`` is the assembled per-write
        remote-visibility lag distribution of a traced run (see
        :mod:`repro.obs`).
        """
        operations = self.rots_completed + self.puts_completed
        throughput = operations / measurement_seconds if measurement_seconds > 0 else 0.0
        end_of_run = self.warmup_seconds + measurement_seconds
        phases = []
        for accumulator, successor in zip(self._phases, self._phases[1:] + [None]):
            end = successor.start if successor is not None else end_of_run
            phases.append(accumulator.finalize(end, self.warmup_seconds))
        return RunResult(
            protocol=protocol,
            num_dcs=num_dcs,
            clients=clients,
            throughput_kops=throughput / 1000.0,
            rot_latency=self.rot_latencies.summary(),
            put_latency=self.put_latencies.summary(),
            rots_completed=self.rots_completed,
            puts_completed=self.puts_completed,
            overhead=overhead,
            cpu_utilization=cpu_utilization,
            label=label,
            phases=tuple(phases),
            visibility_trace=visibility_trace,
        )


__all__ = [
    "MetricsRegistry",
    "PhaseSlice",
    "RunResult",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
]

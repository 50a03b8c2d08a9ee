"""Latency recording and summarisation.

The paper reports average ROT latency for every experiment and the 99th
percentile for the default workload (Figure 5b).  Latencies are recorded in
simulated seconds and reported in milliseconds, matching the paper's axes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

from repro.clocks.units import as_milliseconds


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of one latency population (milliseconds)."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @staticmethod
    def empty() -> "LatencySummary":
        return LatencySummary(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0,
                              p99_ms=0.0, max_ms=0.0)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    if fraction <= 0:
        return sorted_values[0]
    if fraction >= 1:
        return sorted_values[-1]
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(fraction * len(sorted_values) + 0.5)) - 1))
    return sorted_values[rank]


class LatencyRecorder:
    """Accumulates individual operation latencies (simulated seconds).

    Samples are kept as C doubles, 8 bytes each against about 32 in a list
    of floats: a wall-clock run records every operation it completes, so
    this memory grows with the run's speed.  A double holds a float
    exactly, so every sample and every summary equal what a list gives.
    """

    def __init__(self) -> None:
        self._samples = array("d")

    def record(self, latency_seconds: float) -> None:
        """Record one operation latency."""
        self._samples.append(latency_seconds)

    @property
    def count(self) -> int:
        return len(self._samples)

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one."""
        self._samples.extend(other._samples)

    def extend(self, samples_seconds) -> None:
        """Fold raw samples (seconds) into this recorder (cross-process
        result shipping)."""
        self._samples.extend(samples_seconds)

    def samples(self) -> tuple[float, ...]:
        """All recorded samples in seconds (copy, insertion order)."""
        return tuple(self._samples)

    def samples_ms(self) -> list[float]:
        """All samples converted to milliseconds (copy)."""
        return [as_milliseconds(sample) for sample in self._samples]

    def summary(self) -> LatencySummary:
        """Compute summary statistics over all recorded samples."""
        if not self._samples:
            return LatencySummary.empty()
        ordered = sorted(self._samples)
        total = sum(ordered)
        return LatencySummary(
            count=len(ordered),
            mean_ms=as_milliseconds(total / len(ordered)),
            p50_ms=as_milliseconds(percentile(ordered, 0.50)),
            p95_ms=as_milliseconds(percentile(ordered, 0.95)),
            p99_ms=as_milliseconds(percentile(ordered, 0.99)),
            max_ms=as_milliseconds(ordered[-1]),
        )


__all__ = ["LatencyRecorder", "LatencySummary", "percentile"]

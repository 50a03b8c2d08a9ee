"""What the host does to a measurement, and the two corrections for it.

On a small shared VM identical runs differ by 15-35% (a noisy hour: 2.5x),
which no regression bound survives.  The neighbours do two different things:

* They *take the CPU away* (steal): for minutes at a time the process gets
  50-90% of the wall clock.  So every timing of this benchmark is taken on
  :func:`cpu_clock`, the CPU time of the process, not on the wall clock.  The
  workloads are single threads that never wait while an operation is in
  flight, so on a quiet host the two clocks agree (97-99.5%), and on a noisy one
  the CPU clock leaves out exactly what the neighbours took.
* They *slow the CPU down* (shared core, caches, frequency): a second of CPU
  does less.  :class:`HostSpeedProbe` runs a fixed piece of interpreter work
  (:func:`spin`) every :data:`PROBE_PERIOD_SECONDS` *on the same thread as
  the workload* and compares the CPU time it took with what it takes on the
  reference host:

      host_speed_index = REFERENCE_SPIN_SECONDS / typical measured spin time

An index below 1 means "this window ran on a slower host than the
reference"; throughputs are divided and latencies multiplied by it, so the
reported numbers are what the reference host would have measured.  The
correction is first order: it assumes the workload slows down as much as the
spin does.
"""

from __future__ import annotations

import asyncio
import resource
import time

#: The clock of every timing: CPU seconds (user + system) of this process.
cpu_clock = time.process_time

#: Spin time on the reference host (this repo's 2-core build VM, quiet,
#: CPython 3.11).  A constant, not a measurement: changing it rescales every
#: committed number, so it only changes together with a new baseline.
REFERENCE_SPIN_SECONDS = 140e-6

#: One spin per period; at ~0.15 ms per spin the probe costs under 1% of the
#: loop.
PROBE_PERIOD_SECONDS = 0.04

#: Spins behind the index that scales ``setup_s`` (3 ms).
SETUP_SPINS = 20


def spin() -> float:
    """Run the fixed work once; returns the CPU seconds it took.

    The mix (integer arithmetic, dict stores and lookups, tuple allocation)
    is what the kernels and the event loop spend their time on.  Variants
    with a large working set or with system calls in them predicted the
    workloads' slowdown no better (measured on recorded one-minute runs).
    """
    started = cpu_clock()
    table: dict[int, tuple[int, int]] = {}
    total = 0
    for index in range(1200):
        table[index & 127] = (index, total)
        total += table[(index * 7) & 127 if index > 127 else index & 127][0]
    return cpu_clock() - started


def setup_cost() -> dict[str, float]:
    """``setup_s`` when called right before the first operation: the CPU
    seconds this interpreter has used since it was spawned (start-up,
    imports, cluster build, keyspace preload, transport start), with the
    host-speed index of that moment."""
    used = cpu_clock()
    probe = HostSpeedProbe()
    for _ in range(SETUP_SPINS):
        probe.sample()
    return {"setup_s": used, "setup_host_speed_index": probe.index()}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter in MB (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeedProbe:
    """Collects spin samples over one measurement window."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(spin())

    async def run_for(self, seconds: float) -> None:
        """Sleep through a window on the running loop, sampling as we go."""
        deadline = time.perf_counter() + seconds
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            await asyncio.sleep(min(PROBE_PERIOD_SECONDS, remaining))
            self.sample()

    def index(self) -> float:
        """``REFERENCE_SPIN_SECONDS`` over the window's typical spin time.

        Typical = mean of the samples below the 90th percentile.  The
        slowest spins were preempted for milliseconds, which says little
        about how fast the rest of the window ran; the others all count,
        because a slow host shifts the whole distribution.  Of the
        estimators tried on recorded windows (mean, median, middle half,
        minimum, other cuts) this one left the least run-to-run spread on
        both a quiet and a noisy host.
        """
        ordered = sorted(self.samples)
        if not ordered:
            return 1.0
        kept = ordered[:max(1, len(ordered) * 9 // 10)]
        return REFERENCE_SPIN_SECONDS / (sum(kept) / len(kept))

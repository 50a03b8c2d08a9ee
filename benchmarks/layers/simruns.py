"""The simulator workload: Contrarian, Cure and CC-LO, one experiment each.

The simulator's user waits for the simulator, not for virtual time, so the
end-to-end numbers here are real time too, read from the process's CPU clock
like every timing of this benchmark (``host.py``; the simulator never waits,
so that is the wall clock of a host that does not take the CPU away):
simulated client operations completed per second, and the time the simulator
takes to carry one simulated operation from issue to completion (loaded: 16
clients per DC; idle: 1; the mean over the three protocols of each
protocol's percentile).
Everything counted in *virtual* time or in events is exact — identical on
every host and every run of the same seed — and is reported per layer.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from array import array
from typing import Callable, Optional

from layers.host import (HostSpeedProbe, cpu_clock, peak_rss_mb,
                         setup_cost)
from layers.workloads import (IDLE_CLIENTS_PER_DC, SIM_CLIENTS_PER_DC,
                              SIM_PROTOCOLS, sim_config)

from repro.harness.builder import BuiltCluster, build_cluster
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.metrics.overheads import OverheadCounters
from repro.workload.parameters import DEFAULT_WORKLOAD

#: Virtual seconds per ``sim.run(until=...)`` slice; the host-speed probe
#: samples between slices (one slice is tens of wall milliseconds).
SLICE_VIRTUAL_SECONDS = 0.004
#: Virtual seconds the clients get to finish in-flight operations after the
#: measured span; an operation still open after it counts as failed.
DRAIN_VIRTUAL_SECONDS = 0.05


class RealLatencyRegistry:
    """``client.metrics`` of one simulated client (the three calls a client
    makes on it): forwards to the shared registry and notes how long each
    operation took in real (CPU clock) time."""

    def __init__(self, registry, rot_sink: array, put_sink: array) -> None:
        self._registry = registry
        self._issued_at = 0.0
        self._rot_sink = rot_sink
        self._put_sink = put_sink

    def note_issue(self, is_put: bool) -> None:
        self._issued_at = cpu_clock()
        self._registry.note_issue(is_put)

    def record_rot(self, started_at: float, completed_at: float) -> None:
        self._rot_sink.append(cpu_clock() - self._issued_at)
        self._registry.record_rot(started_at, completed_at)

    def record_put(self, started_at: float, completed_at: float) -> None:
        self._put_sink.append(cpu_clock() - self._issued_at)
        self._registry.record_put(started_at, completed_at)


def _counters(cluster: BuiltCluster) -> OverheadCounters:
    merged = OverheadCounters()
    for server in cluster.topology.all_servers():
        merged.merge(server.counters)
    return merged


def run_experiment(protocol: str, seed: int, clients_per_dc: int,
                   duration: float, *,
                   prepare: Optional[Callable[[BuiltCluster], None]] = None,
                   obs_trace: bool = False,
                   on_first_start: Optional[Callable[[], None]] = None
                   ) -> dict:
    """One simulated experiment; returns real-time measurements (CPU clock;
    ``wall_seconds`` is for the traced run, whose spans are on the wall
    clock) and exact rows.

    ``prepare`` may swap parts of the built cluster (tracing proxies, a
    checker) before it starts.
    """
    config = sim_config(seed, clients_per_dc, duration)
    cluster = build_cluster(protocol, config, DEFAULT_WORKLOAD,
                            trace=obs_trace)
    rot_real, put_real = array("d"), array("d")
    for client in cluster.topology.clients:
        client.metrics = RealLatencyRegistry(cluster.metrics, rot_real,
                                             put_real)
    if prepare is not None:
        prepare(cluster)
    if on_first_start is not None:
        on_first_start()
    probe = HostSpeedProbe()
    sim = cluster.sim
    cluster.start()
    started, wall_started = cpu_clock(), time.perf_counter()
    until = 0.0
    while until < duration:
        until = min(duration, until + SLICE_VIRTUAL_SECONDS)
        sim.run(until=until)
        probe.sample()
    real = cpu_clock() - started
    wall = time.perf_counter() - wall_started
    metrics = cluster.metrics
    counters = _counters(cluster)
    rots, puts = metrics.rots_completed, metrics.puts_completed
    rot_virtual = metrics.rot_latencies.summary()
    put_virtual = metrics.put_latencies.summary()
    events = sim.events_processed
    cluster.stop()
    sim.run(until=duration + DRAIN_VIRTUAL_SECONDS)
    issued = metrics.rots_issued + metrics.puts_issued
    completed = metrics.rots_completed + metrics.puts_completed
    return {
        "cluster": cluster,
        "real_seconds": real,
        "wall_seconds": wall,
        "spins": probe.samples,
        "rot_real": rot_real[:rots],
        "put_real": put_real[:puts],
        "attempted": issued,
        "failed": issued - completed,
        # Exact: a function of seed, protocol code and cost model only.
        "row": {
            "protocol": protocol,
            "clients_per_dc": clients_per_dc,
            "virtual_seconds": duration,
            "rots": rots,
            "puts": puts,
            "events": events,
            "messages_sent": counters.messages_sent,
            "bytes_sent": counters.bytes_sent,
            "replication_messages": counters.replication_messages,
            "stabilization_messages": counters.stabilization_messages,
            "readers_checks": counters.readers_checks,
            "rot_ids_distinct": counters.rot_ids_distinct,
            "readers_check_partitions": counters.readers_check_partitions,
            "blocked_reads": counters.blocked_reads,
            "total_block_time": counters.total_block_time,
            "rot_p50_ms": rot_virtual.p50_ms,
            "rot_p99_ms": rot_virtual.p99_ms,
            "put_p50_ms": put_virtual.p50_ms,
            "put_p99_ms": put_virtual.p99_ms,
        },
    }


def digest(rows: list[dict]) -> str:
    """Fingerprint of the exact rows of one pass."""
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def _real_summary(samples: array) -> LatencySummary:
    recorder = LatencyRecorder()
    recorder.extend(samples)
    return recorder.summary()


def timed_sim(job: dict) -> dict:
    """One timed pass: every protocol loaded, then every protocol idle."""
    setup: dict[str, float] = {}

    def first_start() -> None:
        if not setup:
            setup.update(setup_cost())

    windows = {}
    rows = []
    attempted = failed = 0
    for name, clients, duration in (
            ("loaded", SIM_CLIENTS_PER_DC, job["loaded_virtual"]),
            ("idle", IDLE_CLIENTS_PER_DC, job["idle_virtual"])):
        probe = HostSpeedProbe()
        rot, put = [], []
        real = 0.0
        ops = 0
        for protocol in SIM_PROTOCOLS:
            outcome = run_experiment(protocol, job["seed"], clients, duration,
                                     on_first_start=first_start)
            probe.samples.extend(outcome["spins"])
            rot.append(_real_summary(outcome["rot_real"]))
            put.append(_real_summary(outcome["put_real"]))
            real += outcome["real_seconds"]
            ops += outcome["row"]["rots"] + outcome["row"]["puts"]
            attempted += outcome["attempted"]
            failed += outcome["failed"]
            rows.append(outcome["row"])
        # Latencies: the mean over the protocols of each protocol's
        # percentile.  Pooling the samples instead would put the median
        # between the protocols' modes, where it jumps.
        windows[name] = {
            "seconds": real, "ops": ops, "throughput_ops_s": ops / real,
            "rot_samples": sum(s.count for s in rot),
            "rot_p50_ms": statistics.mean(s.p50_ms for s in rot),
            "rot_p99_ms": statistics.mean(s.p99_ms for s in rot),
            "put_samples": sum(s.count for s in put),
            "put_p50_ms": statistics.mean(s.p50_ms for s in put),
            "put_p99_ms": statistics.mean(s.p99_ms for s in put),
            "host_speed_index": probe.index(),
            "spin_samples": len(probe.samples),
        }
    return {
        "seed": job["seed"],
        **setup,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "errors": [],
        "first_failure": None,
        # One chunk each: the pass is the unit ``run.py`` aggregates.
        "loaded": [windows["loaded"]],
        "idle": [windows["idle"]],
        "rows": rows,
        "digest": digest(rows),
    }

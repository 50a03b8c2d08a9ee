"""The traced and the validated realtime run: per-layer metrics.

* :func:`traced_rt` — the windows of the timed run with the benchmark-side
  wrappers of :mod:`layers.trace` on.
* :func:`validated_rt` — ``repro.obs`` tracing and the streaming checker on;
  yields the ``obs.*`` / ``causal.streaming.*`` metrics the correctness gate
  reads.
"""

from __future__ import annotations

import asyncio

from layers.layermetrics import (checker_metrics, obs_metrics, ratio,
                                 span_metrics)
from layers.micro import wire_metrics
from layers.rt import ClosedLoops, Deployment, Window, measure_window
from layers.rtruns import completed, loaded_then_idle, outcome
from layers.trace import (KERNEL, TRANSPORT, WAIT, TimedChecker,
                          TimedInprocTransport, TimedTcpTransport, Tracer,
                          wrap_deployment)
from layers.workloads import RT_WORKLOADS

from repro.causal.streaming import StreamingChecker
from repro.obs.trace import TraceAssembler

#: How often the validated run empties the event buses (their rings hold
#: 2^18 events, a few seconds' worth).
BUS_DRAIN_SECONDS = 0.25

#: The ``cluster.overhead()`` counters the exact-count metrics are made of.
COUNTERS = ("messages_sent", "bytes_sent", "replication_messages",
            "stabilization_messages", "readers_checks", "rot_ids_distinct",
            "readers_check_partitions", "blocked_reads", "total_block_time")


def scaled_throughput(window: Window) -> float:
    """Operations per CPU second of a window at reference host speed, like
    the timed runs'.  (The spans of the traced run stay on the wall clock:
    there are many per operation, and reading the CPU clock costs five times
    as much.)"""
    return window.ops / window.seconds / window.probe.index()


def _overhead(deployment: Deployment) -> dict:
    counters = deployment.server_side.overhead()
    return {name: getattr(counters, name) for name in COUNTERS}


def _counter_metrics(before: dict, after: dict, window: Window,
                     rot_size: int) -> dict:
    """The exact-count metrics over one window, from ``cluster.overhead()``
    read at both ends of it.  A ROT makes ``rot_size`` partition reads, each
    of which may block (Cure)."""
    delta = {name: after[name] - before[name] for name in COUNTERS}
    registry = window.registry
    ops, puts = window.ops, registry.puts_completed
    checks = delta["readers_checks"]
    return {
        "core.kernel.msgs_per_op": ratio(delta["messages_sent"], ops),
        "core.kernel.bytes_per_op": ratio(delta["bytes_sent"], ops),
        "core.kernel.replication_msgs_per_put": ratio(
            delta["replication_messages"], puts),
        "core.kernel.stabilization_msgs_per_s": ratio(
            delta["stabilization_messages"], window.wall_seconds),
        "core.cclo.readers.checks_per_put": ratio(checks, puts),
        "core.cclo.readers.rot_ids_per_check": ratio(
            delta["rot_ids_distinct"], checks),
        "core.cclo.readers.partitions_per_check": ratio(
            delta["readers_check_partitions"], checks),
        "core.vector.blocked_reads_share": ratio(
            delta["blocked_reads"], registry.rots_completed * rot_size),
        "core.vector.block_ms_per_blocked_read": ratio(
            delta["total_block_time"] * 1e3, delta["blocked_reads"]),
    }


def _runtime_metrics(tracer: Tracer, window: Window) -> dict[str, float]:
    """The ``runtime.*`` metrics of the loaded window."""
    wall, ops = window.wall_seconds, window.ops
    return {
        "runtime.nodes.msgs_per_op": ratio(
            tracer.count("runtime.nodes.mailbox_wait"), ops),
        "runtime.nodes.mailbox_wait_p50_us":
            tracer.percentile_us("mailbox_wait", 0.50),
        "runtime.nodes.mailbox_wait_p99_us":
            tracer.percentile_us("mailbox_wait", 0.99),
        "runtime.nodes.timer_fires_per_s":
            tracer.count("core.kernel.server.on_timer") / wall,
        "runtime.nodes.op_turnaround_p50_us":
            tracer.percentile_us("op_turnaround", 0.50),
        "runtime.transport.send_us": tracer.mean_us("runtime.transport.send"),
        "runtime.transport.sends_per_op": ratio(
            tracer.count("runtime.transport.send"), ops),
        "runtime.transport.tcp_hop_p50_us":
            tracer.percentile_us("tcp_hop", 0.50),
        "runtime.transport.tcp_hop_p99_us":
            tracer.percentile_us("tcp_hop", 0.99),
        "budget.loaded_mailbox_wait_share": ratio(tracer.budget[WAIT],
                                                  tracer.budget[3]),
    }


def _budget_metrics(tracer: Tracer) -> dict[str, float]:
    """Where the latency of the completed operations went (see trace.py)."""
    kernel, wait, transport = (tracer.budget[KERNEL], tracer.budget[WAIT],
                               tracer.budget[TRANSPORT])
    latency = tracer.budget[3]
    explained = ratio(kernel + wait + transport, latency)
    return {
        "budget.op_kernel_share": ratio(kernel, latency),
        "budget.op_mailbox_wait_share": ratio(wait, latency),
        "budget.op_transport_share": ratio(transport, latency),
        "budget.op_explained_share": explained,
        "budget.unexplained_share": 1.0 - explained,
    }


async def _traced_rt(job: dict) -> dict:
    workload = RT_WORKLOADS[job["workload"]]
    tracer = Tracer()

    def make_transport(kind: str):
        if kind == "inproc":
            return TimedInprocTransport(tracer)
        return TimedTcpTransport(tracer, batch=True)

    deployment = Deployment(workload, job["seed"],
                            make_transport=make_transport)
    wrap_deployment(deployment, tracer)
    loops = ClosedLoops()
    metrics: dict[str, float] = {}
    before: dict = {}

    def after_warm() -> None:
        tracer.reset()
        before.update(_overhead(deployment))

    def after_loaded(windows: list[Window]) -> None:
        (loaded,) = windows  # the traced job names no chunk: one window
        tracer.time_scale = loaded.probe.index()
        metrics.update(span_metrics(tracer, loaded.wall_seconds))
        metrics.update(_runtime_metrics(tracer, loaded))
        metrics.update(_counter_metrics(
            before, _overhead(deployment), loaded,
            workload.parameters().rot_size))
        # The idle window starts from clean totals: its operations make the
        # budget, taken without queueing like the idle latencies (under load
        # an operation mostly waits behind the others' work).
        tracer.reset()

    await deployment.start()
    try:
        (loaded,), _idle = await loaded_then_idle(
            deployment, loops, job, after_warm, after_loaded)
        metrics.update(_budget_metrics(tracer))
    finally:
        await deployment.stop()
    stores = [server.store for server in deployment.servers]
    metrics["storage.mvstore.versions_per_key_end"] = ratio(
        sum(store.version_count() for store in stores),
        sum(len(store) for store in stores))
    metrics.update(wire_metrics(tracer.envelopes))
    tracer.dump(job["trace_path"], workload.name)
    return {
        "metrics": metrics,
        "throughput_ops_s": scaled_throughput(loaded),
        "failed": loops.failed,
        **outcome(deployment, loops),
    }


def traced_rt(job: dict) -> dict:
    return asyncio.run(_traced_rt(job))


async def _drain_buses(assembler: TraceAssembler, buses) -> None:
    """Move events out of the bounded rings before they can overflow."""
    while True:
        await asyncio.sleep(BUS_DRAIN_SECONDS)
        for bus in buses:
            assembler.ingest_bus(bus)


async def _validated_rt(job: dict, checker: TimedChecker) -> dict:
    deployment = Deployment(RT_WORKLOADS[job["workload"]], job["seed"],
                            obs_trace=True, checker=checker)
    assembler = TraceAssembler()
    buses = [cluster.trace_bus for cluster in deployment.clusters]
    loops = ClosedLoops()
    warm_registry = deployment.client_side.metrics
    await deployment.start()
    drainer = asyncio.ensure_future(_drain_buses(assembler, buses))
    try:
        loops.start(deployment.clients)
        await asyncio.sleep(job["warm"])
        window = await measure_window(deployment.clients, job["loaded"])
        await loops.stop(deployment.clients)
    finally:
        drainer.cancel()
        await asyncio.gather(drainer, return_exceptions=True)
        await deployment.stop()
    for bus in buses:
        assembler.ingest_bus(bus)
    metrics = obs_metrics([assembler],
                          completed((warm_registry, window.registry)))
    metrics.update(checker_metrics([checker]))
    return {
        "metrics": metrics,
        "throughput_ops_s": scaled_throughput(window),
        "failed": loops.failed,
        **outcome(deployment, loops),
    }


def validated_rt(job: dict, checker=None) -> dict:
    """``checker`` (a checker-shaped recorder) is for tests that inject a
    violation; the run uses a fresh ``StreamingChecker`` otherwise."""
    return asyncio.run(_validated_rt(
        job, TimedChecker(checker or StreamingChecker())))

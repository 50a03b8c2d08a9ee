"""Per-layer metrics computed from a tracer, event streams and checkers.

Shared by the realtime and the simulator runs, so a metric name means the
same thing on every workload.
"""

from __future__ import annotations

from typing import Sequence

from layers.trace import TimedChecker, Tracer

from repro.metrics.latency import LatencyRecorder
from repro.obs.events import BATCH_FLUSH
from repro.obs.trace import TraceAssembler


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there was nothing to divide by
    (a layer that did no work on this workload reads 0)."""
    return numerator / denominator if denominator else 0.0


def span_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Metrics straight from the span totals of a window ``wall`` seconds
    long.  The busy shares and ``loop_other_share`` sum to 1 by construction:
    store spans are nested in kernel spans and counted once."""
    busy = (tracer.seconds("core.kernel.")
            + tracer.seconds("runtime.transport.send")
            + tracer.seconds("workload.generator."))
    metrics = {
        "workload.generator.next_op_us": tracer.mean_us("workload.generator."),
        "runtime.nodes.loop_other_share": 1.0 - busy / wall,
        "runtime.transport.busy_share":
            tracer.seconds("runtime.transport.send") / wall,
        "workload.generator.busy_share":
            tracer.seconds("workload.generator.") / wall,
        "core.kernel.server_busy_share":
            tracer.seconds("core.kernel.server.on_message.") / wall,
        "core.kernel.client_busy_share":
            tracer.seconds("core.kernel.client.") / wall,
        "core.kernel.timer_busy_share":
            tracer.seconds("core.kernel.server.on_timer") / wall,
        "core.kernel.on_timer_us":
            tracer.mean_us("core.kernel.server.on_timer"),
        "storage.mvstore.install_us":
            tracer.mean_us("storage.mvstore.install"),
        "storage.mvstore.latest_us": tracer.mean_us("storage.mvstore.latest"),
    }
    prefix = "core.kernel.server.on_message."
    for name in tracer.totals:
        if name.startswith(prefix):
            metrics["core.kernel.on_message_us." + name[len(prefix):]] = \
                tracer.mean_us(name)
    return metrics


def obs_metrics(assemblers: Sequence[TraceAssembler],
                ops: int) -> dict[str, float]:
    """``obs.*`` and frame metrics of the assembled ``repro.obs`` streams of
    one or more runs that completed ``ops`` operations between them."""
    events = dropped = 0
    flushes: list[int] = []
    lags = LatencyRecorder()
    for assembler in assemblers:
        timeline = assembler.events()
        events += len(timeline)
        dropped += assembler.total_dropped()
        flushes.extend(event.datum("count", 0) for event in timeline
                       if event.kind == BATCH_FLUSH)
        lags.extend(lag for _trace, _dc, lag in assembler.visibility_lags())
    visibility = lags.summary()
    return {
        "obs.events_per_op": ratio(events, ops),
        "obs.dropped_events": dropped,
        "obs.visibility_p50_ms": visibility.p50_ms,
        "obs.visibility_p99_ms": visibility.p99_ms,
        "runtime.transport.frames_per_op": ratio(len(flushes), ops),
        "runtime.transport.envelopes_per_frame": ratio(sum(flushes),
                                                       len(flushes)),
    }


def checker_metrics(checkers: Sequence[TimedChecker]) -> dict[str, float]:
    """``causal.streaming.*``; runs every checker's final check."""
    reports = [checker.check() for checker in checkers]
    return {
        "causal.streaming.violations": sum(
            len(report.snapshot_violations) + len(report.session_violations)
            for report in reports),
        "causal.streaming.ingest_ops_s": ratio(
            sum(checker.operations for checker in checkers),
            sum(checker.seconds for checker in checkers)),
        "causal.streaming.live_versions_peak": max(
            checker.peak_live_versions for checker in checkers),
    }

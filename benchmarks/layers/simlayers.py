"""The traced and the validated simulator run: per-layer metrics."""

from __future__ import annotations

from layers.host import HostSpeedProbe
from layers.layermetrics import (checker_metrics, obs_metrics, ratio,
                                 span_metrics)
from layers.simruns import run_experiment
from layers.trace import TimedChecker, Tracer, wrap_sim_cluster
from layers.workloads import SIM_CLIENTS_PER_DC, SIM_PROTOCOLS, SIM_WORKLOAD

from repro.causal.streaming import StreamingChecker
from repro.harness.builder import BuiltCluster
from repro.obs.trace import TraceAssembler
from repro.workload.parameters import DEFAULT_WORKLOAD


def row_metrics(rows: list[dict], ops_per_wall_second: float) -> dict:
    """Per-layer metrics that are (ratios of) exact counts of a timed pass;
    ``ops_per_wall_second`` is the pass's ``throughput_ops_s``.

    Pooled over the three loaded experiments, except where a metric belongs
    to one protocol: blocking is Cure's, the readers check is CC-LO's.
    """
    loaded = {row["protocol"]: row for row in rows
              if row["clients_per_dc"] == SIM_CLIENTS_PER_DC}
    ops = sum(row["rots"] + row["puts"] for row in loaded.values())
    puts = sum(row["puts"] for row in loaded.values())
    events = sum(row["events"] for row in loaded.values())
    messages = sum(row["messages_sent"] for row in loaded.values())
    virtual = sum(row["virtual_seconds"] for row in loaded.values())
    cure, cclo = loaded["cure"], loaded["cc-lo"]
    metrics = {
        "sim.events_per_op": ratio(events, ops),
        "sim.msgs_per_op": ratio(messages, ops),
        "sim.events_per_wall_s": ratio(events, ops) * ops_per_wall_second,
        "core.kernel.msgs_per_op": ratio(messages, ops),
        "core.kernel.bytes_per_op": ratio(
            sum(row["bytes_sent"] for row in loaded.values()), ops),
        "core.kernel.replication_msgs_per_put": ratio(
            sum(row["replication_messages"] for row in loaded.values()), puts),
        "core.kernel.stabilization_msgs_per_s": ratio(
            sum(row["stabilization_messages"] for row in loaded.values()),
            virtual),
        "core.cclo.readers.checks_per_put": ratio(cclo["readers_checks"],
                                                   cclo["puts"]),
        "core.cclo.readers.rot_ids_per_check": ratio(
            cclo["rot_ids_distinct"], cclo["readers_checks"]),
        "core.cclo.readers.partitions_per_check": ratio(
            cclo["readers_check_partitions"], cclo["readers_checks"]),
        "core.vector.blocked_reads_share": ratio(
            cure["blocked_reads"], cure["rots"] * DEFAULT_WORKLOAD.rot_size),
        "core.vector.block_ms_per_blocked_read": ratio(
            cure["total_block_time"] * 1e3, cure["blocked_reads"]),
    }
    for protocol, row in loaded.items():
        metrics[f"sim.virtual_throughput_kops.{protocol}"] = ratio(
            row["rots"] + row["puts"], row["virtual_seconds"]) / 1e3
        metrics[f"sim.virtual_rot_p50_ms.{protocol}"] = row["rot_p50_ms"]
    return metrics


def traced_sim(job: dict) -> dict:
    """The three loaded experiments with kernel/store/generator proxies on."""
    tracer = Tracer()
    probe = HostSpeedProbe()
    real = wall = 0.0
    ops = versions = keys = 0
    for protocol in SIM_PROTOCOLS:
        outcome = run_experiment(
            protocol, job["seed"], SIM_CLIENTS_PER_DC, job["loaded_virtual"],
            prepare=lambda cluster: wrap_sim_cluster(cluster, tracer))
        probe.samples.extend(outcome["spins"])
        real += outcome["real_seconds"]
        wall += outcome["wall_seconds"]
        ops += outcome["row"]["rots"] + outcome["row"]["puts"]
        for server in outcome["cluster"].topology.all_servers():
            versions += server.store.version_count()
            keys += len(server.store)
    tracer.time_scale = probe.index()
    metrics = span_metrics(tracer, wall)
    # In the simulator the time outside the wrapped calls is the simulator:
    # engine, network, node queues and the sim effect executors.
    metrics["sim.self_share"] = metrics.pop("runtime.nodes.loop_other_share")
    metrics["storage.mvstore.versions_per_key_end"] = ratio(versions, keys)
    tracer.dump(job["trace_path"], SIM_WORKLOAD)
    return {"metrics": metrics,
            "throughput_ops_s": ops / real / probe.index(),
            "failed": 0, "errors": [], "first_failure": None}


def validated_sim(job: dict, checker_factory=StreamingChecker) -> dict:
    """The three loaded experiments with ``repro.obs`` tracing and the
    streaming checker on; ``checker_factory`` lets a test inject a
    violation."""
    probe = HostSpeedProbe()
    real = 0.0
    ops = 0
    checkers, assemblers = [], []
    for protocol in SIM_PROTOCOLS:
        checker = TimedChecker(checker_factory())

        def attach(cluster: BuiltCluster, checker=checker) -> None:
            for client in cluster.topology.clients:
                client.checker = checker

        outcome = run_experiment(
            protocol, job["seed"], SIM_CLIENTS_PER_DC, job["loaded_virtual"],
            prepare=attach, obs_trace=True)
        assembler = TraceAssembler()
        assembler.ingest_bus(outcome["cluster"].trace_bus)
        checkers.append(checker)
        assemblers.append(assembler)
        probe.samples.extend(outcome["spins"])
        real += outcome["real_seconds"]
        ops += outcome["row"]["rots"] + outcome["row"]["puts"]
    metrics = obs_metrics(assemblers, ops)
    metrics.update(checker_metrics(checkers))
    return {"metrics": metrics,
            "throughput_ops_s": ops / real / probe.index(),
            "failed": 0, "errors": [], "first_failure": None}

#!/usr/bin/env python
"""What one operation costs the kernels and the host, without an event loop.

The layered benchmark (``benchmarks/layers/``) times the whole system on a
running loop, where a change to the per-message path competes with scheduler
noise.  This script takes the loop away: an *unstarted*
:class:`~repro.runtime.cluster.RealtimeCluster` (2 DCs x 4 partitions, 8
clients per DC, ``InprocTransport``, fixed seed) is driven by hand —
``client.issue(op)``, then ``cluster._drain()`` until the run queue is empty,
every server's periodic timers fired every :data:`OPS_PER_TIMER_ROUND`
operations (less often for intervals above 5 ms), the timer-to-operation
ratio of a traced benchmark run.  Every message still goes kernel -> host ->
transport -> run queue -> host -> kernel, so what is measured is exactly the
per-message path all three backends share.  The cluster's clock is a manual
one that every operation advances by the same step: the protocol work of an
operation (which HLC branch runs, how many reader records CC-LO's 500 ms
window holds) then depends on the schedule alone, not on how fast this tree
or this host happens to run it.  Per protocol it reports

* ``cpu_us_per_op`` — CPU microseconds per operation, median and quartiles
  over ``--rounds`` rounds, each normalised by a fixed pure-Python spin timed
  next to it (a shared VM's speed drifts by several percent a minute);
* ``py_calls_per_op`` / ``c_calls_per_op`` — Python-level and C-level calls
  per operation under ``sys.setprofile``, counted after
  :data:`WARM_OPERATIONS` uncounted ones (they repeat exactly; CPython 3.12
  counts a few percent fewer, it inlines comprehensions; what
  ``tests/test_hot_path_budget.py`` pins);
* ``generated_calls_per_op`` — of those Python-level calls, the ones into
  code a dataclass generated (``<string>`` code objects), by method name,
  with a frozen class's ``__init__`` (one ``object.__setattr__`` per field)
  as ``frozen __init__``.  Counted per code object because ``cProfile``
  cannot: ``pstats`` keys a function by (file, line, name), every generated
  method is ``<string>:2``, so one entry per name keeps one class's count
  and drops the rest (4,000 operations of the loop-free Contrarian drive,
  while messages were still plain frozen dataclasses, showed 1,336
  ``<string>:2(__init__)`` calls where there were 107,213);
* ``msgs_per_op`` — run-queue deliveries per operation;
* ``gc_collections_per_1k_ops`` — the garbage collector's generation 0, 1
  and 2 collections per 1,000 operations of the timed rounds (deltas of
  ``gc.get_stats()`` around each drive), and ``gc_tracked_objects`` — the
  objects it tracks after the last round and a full collection
  (``len(gc.get_objects())``, the whole process): what the cluster keeps
  alive for every collection to walk.

These rows exclude the draw: every operation is drawn from its client's
workload generator before the timed and counted region.  The draw is the
client's own turn, and the same rows report it apart —
``generator_us_per_op`` (normalised CPU microseconds per ``next_operation``,
median over the rounds) and ``generator_py_calls_per_op`` (Python-level
calls per ``next_operation``, the plan's round-robin included), both at the
protocol's write ratio.

A second drive puts the same kernels and host under the discrete-event
simulator (``simulator`` in the result): the layered benchmark's
``sim-three-protocols`` cluster (``build_cluster`` at bench scale, 2 DCs,
:data:`SIM_CLIENTS_PER_DC` closed-loop clients per DC, fixed seed) runs
:data:`SIM_WINDOW_SECONDS` of virtual time uncounted, then the window that is
counted and, on a new cluster per round, timed.  Its rows add
``events_per_op`` (engine events) and count every simulated message in
``msgs_per_op``; both are exact functions of the seed, so a tree that
changes them changed the simulation, not its cost.  The
difference to the loop-free row is what the simulator itself costs an
operation: engine, network, CPU queues and the cost model.

``--label NAME --output FILE`` stores the result under ``NAME`` in ``FILE``,
keeping what the file already holds: ``benchmarks/results/
BENCH_kernel_cost.json`` is this script run in a checkout of the parent
commit (``--label parent``) and in this tree (``--label change``), both under
``PYTHONHASHSEED=0``: the counts do not depend on it, but CC-LO's reader
tables are sets of strings, and their layout moves its CPU time by several
percent from one interpreter to the next.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import statistics
import sys
import time
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.clocks.physical import SkewModel
from repro.clocks.timesource import FixedClock
from repro.cluster.config import ClusterConfig
from repro.harness.builder import BuiltCluster
from repro.harness.builder import build_cluster as build_simulated_cluster
from repro.runtime import cluster as runtime_cluster
from repro.runtime.cluster import RealtimeCluster
from repro.workload.parameters import DEFAULT_WORKLOAD, WorkloadParameters

PROTOCOLS = ("contrarian", "cure", "cc-lo")
#: Write ratios of the layered benchmark's two in-process workloads.
WRITE_RATIO = {"contrarian": 0.05, "cure": 0.05, "cc-lo": 0.1}
#: Timers fire in rounds: a round stands for ``TIMER_ROUND_SECONDS`` of the
#: benchmark's wall clock (the stabilization and heartbeat interval) and comes
#: every ``OPS_PER_TIMER_ROUND`` operations (~3.9 kops/s in the traced
#: benchmark run); a timer with a longer interval (CC-LO's reader GC, 250 ms)
#: fires in every n-th round.
OPS_PER_TIMER_ROUND = 19
TIMER_ROUND_SECONDS = 0.005
#: Operations driven before the counted ones: more than one turn of CC-LO's
#: 500 ms reader window (1,900 operations of the manual clock), so that the
#: counted operations record into, answer from and expire a full window.
WARM_OPERATIONS = 2000
SPIN_ITERATIONS = 200_000
#: What :func:`spin_seconds` took on the machine the committed numbers come
#: from; a round's time is scaled by ``REFERENCE_SPIN_SECONDS / spin``.
REFERENCE_SPIN_SECONDS = 0.0069
#: The simulator drive: closed-loop clients per DC (the loaded point of
#: ``sim-three-protocols``) and the virtual seconds of one window.
SIM_CLIENTS_PER_DC = 16
SIM_WINDOW_SECONDS = 0.030


def build_cluster(protocol: str, seed: int = 7) -> RealtimeCluster:
    """The layered benchmark's realtime topology, never started."""
    config = ClusterConfig(num_partitions=4, num_dcs=2, clients_per_dc=8,
                           keys_per_partition=1000, warmup_seconds=0.0,
                           seed=seed)
    if protocol == "cure":
        # A read that blocks on clock skew arms a timer, which needs a loop
        # to wait on: Cure is driven with synchronised clocks.
        config = config.with_changes(skew_model=SkewModel(max_offset_us=0.0))
    # The cluster builds its own clock; it gets a manual one (see above).
    with mock.patch.object(runtime_cluster, "WallClock", FixedClock):
        return RealtimeCluster(
            protocol, config,
            WorkloadParameters(write_ratio=WRITE_RATIO[protocol]))


def plan(cluster: RealtimeCluster, operations: int, first: int = 0) -> list:
    """The next ``operations`` (index, client, operation) of the schedule:
    round-robin over the clients, numbered from ``first`` so that consecutive
    plans continue one schedule.  Drawn ahead of the measured region — the
    workload generator is its own layer in the budget."""
    clients = cluster.clients
    schedule = []
    for index in range(first, first + operations):
        client = clients[index % len(clients)]
        schedule.append((index, client, client.generator.next_operation()))
    return schedule


def drive(cluster: RealtimeCluster, schedule: list) -> int:
    """Run the planned closed-loop operations to completion, one at a time;
    returns the messages served."""
    queue = cluster._run_queue
    timers = [(server, spec.tag,
               max(1, round(spec.interval / TIMER_ROUND_SECONDS)))
              for server in cluster.servers.values()
              for spec in server.kernel.periodic_timers()]
    messages = 0
    for index, client, operation in schedule:
        cluster.clock.advance(TIMER_ROUND_SECONDS / OPS_PER_TIMER_ROUND)
        if index % OPS_PER_TIMER_ROUND == 0:
            timer_round = index // OPS_PER_TIMER_ROUND
            for server, tag, every in timers:
                if timer_round % every == 0:
                    server.fire_timer(tag)
        client.issue(operation)
        while queue:
            messages += len(queue)
            cluster._drain()
        if client.operation is not None or cluster.first_failure() is not None:
            raise RuntimeError(f"operation {index} of {client.node_id} did "
                               f"not complete: {cluster.first_failure()!r}")
    return messages


def generated_name(code) -> str:
    """What a ``<string>`` code object is: the method name a dataclass
    generated (``__init__``, ``__eq__``, ``__hash__``, ...), ``frozen
    __init__`` for a frozen class's, which stores every field through
    ``object.__setattr__``."""
    if (code.co_name == "__init__" and "__dataclass_builtins_object__"
            in code.co_names + code.co_freevars):
        return "frozen __init__"
    return code.co_name


def profiled(work) -> tuple[dict[str, int], dict[str, int], object]:
    """Run ``work()`` under ``sys.setprofile``; the Python-level (``call``)
    and C-level (``c_call``) calls it made, its calls into ``<string>`` code
    by :func:`generated_name`, and what it returned."""
    counts = {"call": 0, "c_call": 0}
    generated = collections.Counter()

    def profiler(frame, event, arg):
        if event in counts:
            counts[event] += 1
            if event == "call" and frame.f_code.co_filename == "<string>":
                generated[frame.f_code] += 1

    sys.setprofile(profiler)
    try:
        outcome = work()
    finally:
        sys.setprofile(None)
    by_name = collections.Counter()
    for code, calls in generated.items():
        by_name[generated_name(code)] += calls
    return counts, dict(sorted(by_name.items())), outcome


def _per_op(counts: dict[str, int], operations: int) -> dict[str, float]:
    return {name: round(calls / operations, 2)
            for name, calls in counts.items()}


def count_calls(protocol: str, operations: int = 500,
                warm: int = WARM_OPERATIONS) -> dict:
    """Python-level, C-level and generated calls and messages per
    operation."""
    cluster = build_cluster(protocol)
    drive(cluster, plan(cluster, warm))
    schedule = plan(cluster, operations, first=warm)
    counts, generated, messages = profiled(lambda: drive(cluster, schedule))
    return {"py_calls_per_op": counts["call"] / operations,
            "c_calls_per_op": counts["c_call"] / operations,
            "generated_calls_per_op": _per_op(generated, operations),
            "msgs_per_op": messages / operations}


def count_generator_calls(protocol: str,
                          operations: int = WARM_OPERATIONS) -> float:
    """Python-level calls per drawn operation, after as many uncounted."""
    cluster = build_cluster(protocol)
    plan(cluster, operations)
    counts, _, _ = profiled(lambda: plan(cluster, operations,
                                         first=operations))
    return counts["call"] / operations


def build_sim_cluster(protocol: str, seed: int = 7) -> BuiltCluster:
    """The layered benchmark's loaded simulator cluster, started and run
    through its first (uncounted) window."""
    config = ClusterConfig.bench_scale(
        num_dcs=2, clients_per_dc=SIM_CLIENTS_PER_DC, warmup_seconds=0.0,
        seed=seed)
    cluster = build_simulated_cluster(protocol, config, DEFAULT_WORKLOAD)
    cluster.start()
    sim_window(cluster)
    return cluster


def sim_window(cluster: BuiltCluster) -> tuple[int, int, int]:
    """Simulate the next window; the operations completed, engine events
    executed and messages sent in it."""
    sim, metrics = cluster.sim, cluster.metrics
    network = cluster.topology.network.stats

    def totals() -> tuple[int, int, int]:
        return (metrics.rots_completed + metrics.puts_completed,
                sim.events_processed, network.messages)

    before = totals()
    sim.run(until=sim.now + SIM_WINDOW_SECONDS)
    return tuple(after - start for after, start in zip(totals(), before))


def count_sim_calls(protocol: str) -> dict:
    """Calls, engine events and messages per simulated operation."""
    cluster = build_sim_cluster(protocol)
    counts, generated, (operations, events, messages) = profiled(
        lambda: sim_window(cluster))
    return {"py_calls_per_op": counts["call"] / operations,
            "c_calls_per_op": counts["c_call"] / operations,
            "generated_calls_per_op": _per_op(generated, operations),
            "events_per_op": events / operations,
            "msgs_per_op": messages / operations,
            "window": [operations, events, messages]}


def spin_seconds() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's speed right now."""
    started = time.process_time()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value & 7
    return time.process_time() - started


def timed(work) -> tuple[float, object]:
    """CPU seconds ``work()`` took, scaled to the reference host speed by a
    spin timed on either side of it, and what it returned."""
    spin = spin_seconds()
    started = time.process_time()
    outcome = work()
    elapsed = time.process_time() - started
    spin = (spin + spin_seconds()) / 2
    return elapsed * REFERENCE_SPIN_SECONDS / spin, outcome


def gc_collections() -> list[int]:
    """Collections the garbage collector has run so far, per generation."""
    return [generation["collections"] for generation in gc.get_stats()]


def gc_tracked_objects() -> int:
    """Objects the garbage collector tracks once it has run in full (a
    collection stops tracking tuples that hold no container)."""
    gc.collect()
    return len(gc.get_objects())


def time_rounds(protocol: str, rounds: int,
                operations: int) -> tuple[list[float], list[float], dict]:
    """Normalised CPU microseconds per operation of each round: driving it,
    and drawing it; and what the drives cost the garbage collector."""
    cluster = build_cluster(protocol)
    drive(cluster, plan(cluster, operations))
    samples, draws = [], []
    passes = [0] * len(gc_collections())
    for index in range(rounds):
        seconds, schedule = timed(lambda: plan(
            cluster, operations, first=(index + 1) * operations))
        draws.append(seconds / operations * 1e6)
        before = gc_collections()
        seconds, _ = timed(lambda: drive(cluster, schedule))
        passes = [total + after - start for total, after, start
                  in zip(passes, gc_collections(), before)]
        samples.append(seconds / operations * 1e6)
    return samples, draws, {
        "gc_collections_per_1k_ops": [
            round(count * 1000 / (rounds * operations), 2)
            for count in passes],
        "gc_tracked_objects": gc_tracked_objects()}


def time_sim_rounds(protocol: str, rounds: int) -> list[float]:
    """Normalised CPU microseconds per simulated operation of each round:
    every round times the window whose calls are counted, on a new cluster
    (the state a simulated window leaves behind makes the next one dearer)."""
    samples = []
    for _ in range(rounds):
        cluster = build_sim_cluster(protocol)
        seconds, (operations, _, _) = timed(lambda: sim_window(cluster))
        samples.append(seconds / operations * 1e6)
    return samples


def _row(samples: list[float], counts: dict[str, float]) -> dict:
    low, median, high = statistics.quantiles(samples, n=4)
    return {"cpu_us_per_op": {"median": round(median, 1),
                              "q1": round(low, 1), "q3": round(high, 1),
                              "rounds": [round(s, 1) for s in samples]},
            **{name: round(value, 1) if isinstance(value, float) else value
               for name, value in counts.items()}}


def _loop_free_row(protocol: str, rounds: int, operations: int) -> dict:
    samples, draws, garbage = time_rounds(protocol, rounds, operations)
    return {**_row(samples, count_calls(protocol)),
            "generator_us_per_op": round(statistics.median(draws), 2),
            "generator_py_calls_per_op": round(
                count_generator_calls(protocol), 1),
            **garbage}


def measure(rounds: int, operations: int) -> dict:
    return {"python": platform.python_version(),
            "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
            "rounds": rounds, "ops_per_round": operations,
            "protocols": {
                protocol: _loop_free_row(protocol, rounds, operations)
                for protocol in PROTOCOLS},
            "simulator": {
                protocol: _row(time_sim_rounds(protocol, rounds),
                               count_sim_calls(protocol))
                for protocol in PROTOCOLS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--operations", type=int, default=2000,
                        help="operations per timed round")
    parser.add_argument("--label", default="change",
                        help="key the result is stored under in --output")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("quartiles need at least two rounds")
    result = measure(args.rounds, args.operations)
    for drive_name, label in (("protocols", "loop-free"),
                              ("simulator", "simulator")):
        for protocol, row in result[drive_name].items():
            cpu = row["cpu_us_per_op"]
            events = (f", {row['events_per_op']} events/op"
                      if "events_per_op" in row else
                      f"; draw {row['generator_us_per_op']} us, "
                      f"{row['generator_py_calls_per_op']} Python calls; "
                      f"gc {row['gc_collections_per_1k_ops']} per 1k ops, "
                      f"{row['gc_tracked_objects']} tracked")
            print(f"{label:>9} {protocol:>10}: "
                  f"{cpu['median']:7.1f} us/op "
                  f"(q1 {cpu['q1']}, q3 {cpu['q3']}), "
                  f"{row['py_calls_per_op']} Python + "
                  f"{row['c_calls_per_op']} C calls/op "
                  f"({sum(row['generated_calls_per_op'].values()):.1f} "
                  f"generated), "
                  f"{row['msgs_per_op']} msgs/op{events}")
    if args.output:
        report = {}
        if os.path.exists(args.output):
            with open(args.output, encoding="utf-8") as handle:
                report = json.load(handle)
        report[args.label] = result
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

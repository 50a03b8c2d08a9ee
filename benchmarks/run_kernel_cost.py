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
* ``msgs_per_op`` — run-queue deliveries per operation.

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
from repro.runtime import cluster as runtime_cluster
from repro.runtime.cluster import RealtimeCluster
from repro.workload.parameters import WorkloadParameters

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


def count_calls(protocol: str, operations: int = 500,
                warm: int = WARM_OPERATIONS) -> dict[str, float]:
    """Python-level and C-level calls and messages per operation."""
    cluster = build_cluster(protocol)
    drive(cluster, plan(cluster, warm))
    schedule = plan(cluster, operations, first=warm)
    counts = {"call": 0, "c_call": 0}

    def profiler(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profiler)
    try:
        messages = drive(cluster, schedule)
    finally:
        sys.setprofile(None)
    return {"py_calls_per_op": counts["call"] / operations,
            "c_calls_per_op": counts["c_call"] / operations,
            "msgs_per_op": messages / operations}


def spin_seconds() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's speed right now."""
    started = time.process_time()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value & 7
    return time.process_time() - started


def time_rounds(protocol: str, rounds: int, operations: int) -> list[float]:
    """Normalised CPU microseconds per operation of each round."""
    cluster = build_cluster(protocol)
    drive(cluster, plan(cluster, operations))
    samples = []
    for index in range(rounds):
        schedule = plan(cluster, operations, first=(index + 1) * operations)
        spin = spin_seconds()
        started = time.process_time()
        drive(cluster, schedule)
        elapsed = time.process_time() - started
        spin = (spin + spin_seconds()) / 2
        samples.append(elapsed / operations * 1e6
                       * REFERENCE_SPIN_SECONDS / spin)
    return samples


def measure(rounds: int, operations: int) -> dict:
    protocols = {}
    for protocol in PROTOCOLS:
        samples = time_rounds(protocol, rounds, operations)
        low, median, high = statistics.quantiles(samples, n=4)
        protocols[protocol] = {
            "cpu_us_per_op": {"median": round(median, 1),
                              "q1": round(low, 1), "q3": round(high, 1),
                              "rounds": [round(s, 1) for s in samples]},
            **{name: round(value, 1)
               for name, value in count_calls(protocol).items()},
        }
    return {"python": platform.python_version(),
            "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
            "rounds": rounds, "ops_per_round": operations,
            "protocols": protocols}


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
    for protocol, row in result["protocols"].items():
        cpu = row["cpu_us_per_op"]
        print(f"{protocol:>10}: {cpu['median']:7.1f} us/op "
              f"(q1 {cpu['q1']}, q3 {cpu['q3']}), "
              f"{row['py_calls_per_op']} Python + {row['c_calls_per_op']} C "
              f"calls/op, {row['msgs_per_op']} msgs/op")
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

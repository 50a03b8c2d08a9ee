#!/usr/bin/env python
"""CI smoke benchmark: one short load sweep per protocol, as JSON.

Runs a client sweep for the selected protocols through the one experiment
executor (``repro.harness.parallel.run_series``) and writes
``BENCH_smoke.json`` containing the measured series plus the wall-clock the
whole grid took.  CI uploads the file as an
artifact on every run, so the performance trajectory of the simulator (and of
the executor itself) is tracked from PR to PR.

Usage::

    PYTHONPATH=src python benchmarks/run_smoke_benchmark.py \
        [--output BENCH_smoke.json] [--workers N] [--backend sim|inproc|tcp] \
        [--emit-trace TRACE_smoke.json] \
        [--protocols cc-lo cure] [--clients 2 4 8] [--scenario dc-partition]

``--emit-trace PATH`` additionally runs one 2-DC point per protocol twice —
tracing off, then tracing on — writes the merged Perfetto/Chrome timeline of
the traced runs to ``PATH``, and records the measured tracing overhead in the
JSON report (``trace`` section).  The run **fails** (exit 1) if the trace
assembler detects dropped events (per-source sequence gaps), so CI catches a
lossy trace pipeline the same way it catches a failing sweep.

``--protocols`` / ``--clients`` point the run at any grid cell instead of the
default full-protocol 3-point sweep; ``--scenario`` executes a canned fault
scenario (see ``repro.faults.library``) inside every run, in which case the
JSON rows carry per-phase slices.  ``--backend inproc`` serves the same
sweep from one asyncio loop on wall-clock time and ``--backend tcp`` from
one OS process per partition server over wire-encoded TCP frames; every
such point is validated by the causal checker (whole-history in process,
windowed as observation chunks arrive over TCP) and the run *fails* on any
consistency violation, so ``BENCH`` artifacts can compare the backends
point by point.  The CI ``tcp-smoke`` job records the TCP sweep as
``BENCH_tcp.json``.

The default configuration is deliberately small (test-scale cluster, short
runs): the goal is a stable, minutes-not-hours signal, not a full
regeneration of the paper's figures — the nightly benchmark job does that.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.core.registry import implemented_protocols
from repro.faults.library import SCENARIOS, get_scenario
from repro.harness.parallel import resolve_worker_count, run_series, sweep_specs
from repro.harness.runner import BACKENDS, run_experiment
from repro.obs.export import write_chrome_trace

#: Wall-clock duration of one inproc/tcp sweep point (seconds, incl. warmup).
REALTIME_POINT_SECONDS = 0.8

#: Client counts of the smoke sweep (3 points, well below saturation).
SMOKE_SWEEP = (2, 4, 8)


def smoke_config(scenario_name: str = "none") -> ClusterConfig:
    """The fixed small configuration the smoke benchmark always uses.

    Fault scenarios need a second DC (partitions) and a longer run so the
    before/during/after phases all get a measurement window.
    """
    if scenario_name not in ("", "none"):
        return ClusterConfig.test_scale(num_dcs=2, duration_seconds=2.4,
                                        warmup_seconds=0.2)
    return ClusterConfig.test_scale(duration_seconds=0.5, warmup_seconds=0.1)


def run_smoke(workers: int | None = None,
              protocols: list[str] | None = None,
              clients: list[int] | None = None,
              scenario_name: str = "none",
              backend: str = "sim") -> dict[str, object]:
    """Run the smoke grid and return the JSON-ready report."""
    protocols = list(protocols or implemented_protocols())
    clients = list(clients or SMOKE_SWEEP)
    scenario = get_scenario(scenario_name)
    config = smoke_config(scenario_name)
    started = time.perf_counter()
    if backend != "sim":
        series = {protocol: [run_experiment(
                      protocol,
                      config.with_changes(
                          clients_per_dc=count,
                          duration_seconds=REALTIME_POINT_SECONDS),
                      backend=backend,
                      check_consistency=True,
                      checker=(StreamingChecker() if backend == "tcp"
                               else None),
                      scenario=scenario,
                      label=f"smoke-{backend}").result
                  for count in clients]
                  for protocol in protocols}
    else:
        series = run_series({
            protocol: sweep_specs(
                protocol, clients, config,
                scenario=None if scenario.is_empty else scenario,
                label="smoke")
            for protocol in protocols}, max_workers=workers)
    wall_clock = time.perf_counter() - started
    return {
        "benchmark": "smoke",
        "backend": backend,
        "client_counts": clients,
        "scenario": scenario_name if not scenario.is_empty else "none",
        "workers": resolve_worker_count(workers) if backend == "sim" else 1,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "wall_clock_seconds": round(wall_clock, 3),
        "series": {protocol: [result.as_json_dict() for result in results]
                   for protocol, results in series.items()},
    }


def run_traced_pass(trace_path: str,
                    protocols: list[str],
                    clients: list[int],
                    backend: str = "sim") -> dict[str, object]:
    """Measure tracing overhead and write the merged timeline artifact.

    One 2-DC point per protocol (at the sweep's lowest client count and a
    shortened run, so the full event stream fits the bus ring), run twice
    back to back: tracing off to establish the baseline, then tracing on.
    The traced runs' event streams become one Chrome-trace file with a
    Perfetto process row per protocol; the returned ``trace`` report section
    carries wall-clock/throughput overhead and the sequence-gap verdict.
    """
    config = smoke_config().with_changes(num_dcs=2, duration_seconds=0.3)
    count = min(clients)
    groups: dict[str, object] = {}
    per_protocol: dict[str, dict[str, object]] = {}
    total_gaps = 0
    for protocol in protocols:
        point = config.with_changes(clients_per_dc=count)
        if backend != "sim":
            point = point.with_changes(duration_seconds=REALTIME_POINT_SECONDS)

        def run_point(traced: bool):
            started = time.perf_counter()
            outcome = run_experiment(
                protocol, point, backend=backend, trace=traced,
                label=f"smoke-trace-{'on' if traced else 'off'}")
            return outcome, time.perf_counter() - started

        baseline, baseline_seconds = run_point(traced=False)
        traced_outcome, traced_seconds = run_point(traced=True)
        assembler = traced_outcome.trace
        gaps = sum(assembler.sequence_gaps().values())
        total_gaps += gaps
        events = assembler.events()
        groups[protocol] = events
        per_protocol[protocol] = {
            "clients_per_dc": count,
            "untraced_seconds": round(baseline_seconds, 4),
            "traced_seconds": round(traced_seconds, 4),
            "wall_clock_overhead_pct": round(
                (traced_seconds - baseline_seconds)
                / baseline_seconds * 100.0, 2),
            "throughput_untraced_kops": baseline.result.throughput_kops,
            "throughput_traced_kops": traced_outcome.result.throughput_kops,
            "events": len(events),
            "sequence_gaps": gaps,
            "complete_chains": len(assembler.complete_chains(
                num_remote_dcs=config.num_dcs - 1)),
            "visibility_p50_ms":
                traced_outcome.result.visibility_trace.p50_ms,
        }
    info = write_chrome_trace(trace_path, groups,
                              metadata={"benchmark": "smoke",
                                        "backend": backend})
    return {
        "path": info["path"],
        "records": info["records"],
        "per_protocol": per_protocol,
        "total_sequence_gaps": total_gaps,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_smoke.json",
                        help="path of the JSON report (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: auto-detect)")
    parser.add_argument("--protocols", nargs="+", default=None,
                        metavar="PROTOCOL",
                        choices=implemented_protocols(),
                        help="protocols to sweep (default: all implemented)")
    parser.add_argument("--clients", nargs="+", type=int, default=None,
                        metavar="N",
                        help="clients-per-DC load points (default: %s)"
                             % (SMOKE_SWEEP,))
    parser.add_argument("--scenario", default="none",
                        choices=["none", *sorted(SCENARIOS)],
                        help="canned fault scenario to run inside every "
                             "simulation (default: none)")
    parser.add_argument("--backend", default="sim", choices=BACKENDS,
                        help="run the sweep on the discrete-event simulator, "
                             "one asyncio loop (inproc) or one OS process "
                             "per partition server over TCP "
                             "(default: %(default)s)")
    parser.add_argument("--emit-trace", default=None, metavar="PATH",
                        help="also run a traced 2-DC point per protocol, "
                             "write the merged Perfetto timeline to PATH "
                             "and record the tracing overhead; fails on "
                             "dropped trace events")
    args = parser.parse_args(argv)
    if args.backend != "sim" and args.workers is not None:
        parser.error("--workers only applies to the sim backend "
                     "(a wall-clock sweep runs points sequentially)")

    # Fail on an unwritable destination *before* spending minutes simulating.
    output_dir = os.path.dirname(os.path.abspath(args.output))
    os.makedirs(output_dir, exist_ok=True)

    report = run_smoke(args.workers, args.protocols, args.clients,
                       args.scenario, args.backend)
    if args.emit_trace:
        trace_dir = os.path.dirname(os.path.abspath(args.emit_trace))
        os.makedirs(trace_dir, exist_ok=True)
        report["trace"] = run_traced_pass(
            args.emit_trace,
            list(args.protocols or implemented_protocols()),
            list(args.clients or SMOKE_SWEEP),
            args.backend)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"smoke benchmark[{report['backend']}]: "
          f"{len(report['series'])} protocols x "
          f"{len(report['client_counts'])} points "
          f"(scenario: {report['scenario']}) in "
          f"{report['wall_clock_seconds']}s "
          f"({report['workers']} workers) -> {args.output}")
    for protocol, rows in sorted(report["series"].items()):
        peak = max(row["throughput_kops"] for row in rows)
        print(f"  {protocol:<12} peak {peak:.1f} Kops/s")
    if args.emit_trace:
        trace = report["trace"]
        for protocol, row in sorted(trace["per_protocol"].items()):
            print(f"  {protocol:<12} trace: {row['events']} events, "
                  f"{row['complete_chains']} complete chains, "
                  f"overhead {row['wall_clock_overhead_pct']:+.1f}%, "
                  f"gaps {row['sequence_gaps']}")
        print(f"timeline -> {trace['path']} ({trace['records']} records)")
        if trace["total_sequence_gaps"]:
            print(f"ERROR: trace assembler dropped "
                  f"{trace['total_sequence_gaps']} events (sequence gaps)",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

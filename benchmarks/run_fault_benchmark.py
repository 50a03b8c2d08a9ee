#!/usr/bin/env python
"""CI fault smoke: one partition scenario per protocol, checker-verified.

Runs the scripted DC-partition scenario (partition one data center mid-run,
heal it, keep measuring) once for every implemented protocol with the causal
consistency checker recording the full history.  The run *fails* (non-zero
exit) if the checker reports any snapshot, session or convergence violation
— causal consistency must hold through partitions, and the replicas must
converge once the run has quiesced after the heal; only liveness
(remote-update visibility) may degrade.  The per-phase metric slices are written to
``BENCH_faults.json`` so CI tracks the protocols' before/during/after
behaviour from PR to PR.

Usage::

    PYTHONPATH=src python benchmarks/run_fault_benchmark.py \
        [--output BENCH_faults.json] [--scenario dc-partition] [--clients 8]
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
from repro.harness.runner import run_experiment


def fault_config(clients: int) -> ClusterConfig:
    """Small two-DC configuration leaving room for all three phases."""
    return ClusterConfig.test_scale(num_dcs=2, clients_per_dc=clients,
                                    duration_seconds=2.1, warmup_seconds=0.2)


def run_fault_smoke(scenario_name: str = "dc-partition",
                    clients: int = 4) -> dict[str, object]:
    """Run the scenario for every protocol and return the JSON-ready report."""
    # Stretch the canned fault window to the 2.1s smoke run: baseline to
    # 0.7s, fault until 1.4s, recovery afterwards.
    overrides = {"start": 0.7, "heal": 1.4} \
        if scenario_name in ("dc-partition", "flaky-wan", "slow-dc") else {}
    scenario = get_scenario(scenario_name, **overrides)
    config = fault_config(clients)
    started = time.perf_counter()
    protocols: dict[str, object] = {}
    total_violations = 0
    for protocol in implemented_protocols():
        outcome = run_experiment(protocol, config, scenario=scenario,
                                 checker=StreamingChecker.offline(),
                                 label="fault-smoke")
        report = outcome.checker_report
        assert report is not None
        violations = (len(report.snapshot_violations)
                      + len(report.session_violations)
                      + len(report.convergence_violations))
        total_violations += violations
        protocols[protocol] = {
            "violations": violations,
            "snapshot_violations": report.snapshot_violations[:10],
            "session_violations": report.session_violations[:10],
            "convergence_violations": report.convergence_violations[:10],
            "checked_puts": report.puts,
            "checked_rots": report.rots,
            "result": outcome.result.as_json_dict(),
        }
    return {
        "benchmark": "fault-smoke",
        "scenario": scenario_name,
        "scenario_events": [event.describe() for event in scenario.events],
        "clients_per_dc": clients,
        "python": platform.python_version(),
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
        "total_violations": total_violations,
        "protocols": protocols,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_faults.json",
                        help="path of the JSON report (default: %(default)s)")
    parser.add_argument("--scenario", default="dc-partition",
                        choices=sorted(SCENARIOS),
                        help="canned scenario to run (default: %(default)s)")
    parser.add_argument("--clients", type=int, default=4,
                        help="clients per DC (default: %(default)s)")
    args = parser.parse_args(argv)

    output_dir = os.path.dirname(os.path.abspath(args.output))
    os.makedirs(output_dir, exist_ok=True)

    report = run_fault_smoke(args.scenario, args.clients)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"fault smoke ({report['scenario']}): "
          f"{len(report['protocols'])} protocols in "
          f"{report['wall_clock_seconds']}s -> {args.output}")
    for protocol, row in sorted(report["protocols"].items()):
        phases = row["result"]["phases"]
        summary = " ".join(
            f"{phase['name']}={phase['throughput_kops']:.1f}K/"
            f"{phase['rot_latency']['mean_ms']:.2f}ms"
            for phase in phases)
        print(f"  {protocol:<12} violations={row['violations']}  {summary}")
    if report["total_violations"]:
        print(f"FAIL: {report['total_violations']} consistency violations "
              "under faults")
        return 1
    print("OK: causal consistency held through the scenario")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""CI checker benchmark: windowed vs offline consistency checking on
million-op histories, as JSON.

Three stages:

**Streaming series** — the :class:`~repro.causal.streaming.StreamingChecker`
validates deterministic synthetic histories (:mod:`repro.causal.synth`) of
increasing length, each in a fresh subprocess so peak RSS is attributable to
that run alone.  The series is the memory-boundedness evidence: checker
memory is O(window), so peak RSS must stay flat while history length grows
8x (``bench_compare.py`` gates the growth ratio).  Throughput (ops checked
per second) comes from the same runs, unperturbed by allocation tracing.

**Offline compare** — the same checker as one window that never retires
(:meth:`StreamingChecker.offline()
<repro.causal.streaming.StreamingChecker.offline>`) on the same workload at
``--compare-ops`` (it holds the entire history, so it does not get the
million-op scale), plus a byte-identical report-equivalence check: the
windowed and the offline checker are fed one history chunk by chunk and must
produce the same violations in the same order — ``"equivalent"`` in the
JSON, gated by ``bench_compare.py``.

**TCP capture** — a short multi-process run
(:func:`~repro.harness.runner.run_experiment` with
``backend="tcp", checker=StreamingChecker()``): workers stream
observation-log chunks over the wire codec during the run and the parent
checks them incrementally.  Validates the capture path end-to-end; fails the
benchmark on any violation or if no chunks were streamed.

There is no parallel row: the pooled window check lost to the serial one on
every core count it was measured on (250k ops on two cores: 10.1-10.8 kops/s
at 53.4 MB against 15.3-15.4 kops/s at 36.9 MB; one core: 8.6k against
28.4k) and was deleted in PR 23.  ``cpu_count`` is recorded all the same.

Usage::

    PYTHONPATH=src python benchmarks/run_checker_benchmark.py \
        [--output BENCH_checker.json] [--ops 1000000] \
        [--compare-ops 100000] [--skip-tcp]

CI runs this on every push and diffs the committed baseline in
``benchmarks/results/BENCH_checker.json`` with ``bench_compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.causal.streaming import StreamingChecker
from repro.causal.synth import generate_history

#: Longest synthetic history (the headline scale); the series measures
#: max/8, max/4, max/2 and max operations.
DEFAULT_OPS = 1_000_000
#: Scale for the offline comparison and the equivalence check.
DEFAULT_COMPARE_OPS = 100_000
#: Streaming ingestion chunk (the observation-shipping analogue).
CHUNK_OPS = 2_048
#: Checker window for every streaming measurement.
WINDOW_OPS = 4_096
#: Wall-clock duration of the TCP capture run (seconds).
TCP_CAPTURE_SECONDS = 1.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _feed(checker: StreamingChecker, total_ops: int) -> None:
    """Feed a synthetic history chunk-wise (the observation-shipping
    analogue) into ``checker``."""
    puts, rots, pending = [], [], 0
    for kind, op in generate_history(total_ops):
        (puts if kind == "put" else rots).append(op)
        pending += 1
        if pending == CHUNK_OPS:
            checker.record_history(puts, rots)
            puts, rots, pending = [], [], 0
    checker.record_history(puts, rots)


def _check(kind: str, total_ops: int) -> dict[str, object]:
    """One timed check of a synthetic history, windowed or offline."""
    checker = (StreamingChecker(window_ops=WINDOW_OPS) if kind == "streaming"
               else StreamingChecker.offline())
    started = time.perf_counter()
    _feed(checker, total_ops)
    report = checker.check()
    elapsed = time.perf_counter() - started
    row = {
        "ops": total_ops,
        "ops_s": round(total_ops / elapsed, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "violations": (len(report.snapshot_violations)
                       + len(report.session_violations)),
    }
    if kind == "streaming":
        row.update(peak_live_versions=checker.peak_live_versions,
                   windows_sealed=checker.windows_sealed,
                   versions_retired=checker.versions_retired)
    return row


def _run_child(kind: str, total_ops: int) -> dict:
    """One measurement in a fresh subprocess (isolated, attributable RSS)."""
    argv = [sys.executable, os.path.abspath(__file__), "--child", kind,
            "--ops", str(total_ops)]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    completed = subprocess.run(argv, capture_output=True, text=True, env=env)
    if completed.returncode != 0:
        raise RuntimeError(
            f"child {kind}@{total_ops} failed:\n{completed.stderr}")
    return json.loads(completed.stdout)


def run_streaming_series(max_ops: int) -> dict[str, object]:
    series = []
    for ops in (max_ops // 8, max_ops // 4, max_ops // 2, max_ops):
        row = _run_child("streaming", ops)
        series.append(row)
        print(f"  streaming {ops:>9,} ops: {row['ops_s']:>9,.0f} ops/s, "
              f"peak RSS {row['peak_rss_mb']:.0f} MB, "
              f"peak live {row['peak_live_versions']:,} versions, "
              f"{row['windows_sealed']} windows")
    growth = series[-1]["peak_rss_mb"] / series[0]["peak_rss_mb"]
    return {
        "series": series,
        "memory_growth": round(growth, 3),
        "ops_s": series[-1]["ops_s"],
    }


def run_offline_compare(compare_ops: int) -> dict[str, object]:
    row = _run_child("offline", compare_ops)
    print(f"  offline {compare_ops:>11,} ops: {row['ops_s']:>9,.0f} ops/s, "
          f"peak RSS {row['peak_rss_mb']:.0f} MB")
    return row


def check_equivalence(compare_ops: int) -> bool:
    """Byte-identical windowed and offline reports on one history."""
    windowed = StreamingChecker(window_ops=WINDOW_OPS)
    offline = StreamingChecker.offline()
    _feed(windowed, compare_ops)
    _feed(offline, compare_ops)
    equivalent = repr(windowed.check()) == repr(offline.check())
    print(f"  equivalence @ {compare_ops:,} ops: "
          f"{'identical reports' if equivalent else 'REPORTS DIFFER'}")
    return equivalent


def run_tcp_capture() -> dict[str, object]:
    from repro.cluster.config import ClusterConfig
    from repro.harness.runner import run_experiment

    outcome = run_experiment(
        "contrarian", ClusterConfig.test_scale(
            num_dcs=2, duration_seconds=TCP_CAPTURE_SECONDS),
        backend="tcp", checker=StreamingChecker(), label="checker-capture")
    report = outcome.checker_report
    cluster = outcome.cluster
    row = {
        "protocol": "contrarian",
        "chunks_ingested": cluster.chunks_ingested,
        "puts": report.puts,
        "rots": report.rots,
        "windows_sealed": cluster.checker.windows_sealed,
        "violations": (len(report.snapshot_violations)
                       + len(report.session_violations)),
    }
    print(f"  tcp capture: {row['chunks_ingested']} chunks, "
          f"{row['puts']:,} puts / {row['rots']:,} rots, "
          f"violations {row['violations']}")
    return row


def child_main(kind: str, total_ops: int) -> int:
    json.dump(_check(kind, total_ops), sys.stdout)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_checker.json",
                        help="path of the JSON report (default: %(default)s)")
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS,
                        help="largest streaming history "
                             "(default: %(default)s)")
    parser.add_argument("--compare-ops", type=int,
                        default=DEFAULT_COMPARE_OPS,
                        help="offline-comparison scale "
                             "(default: %(default)s)")
    parser.add_argument("--skip-tcp", action="store_true",
                        help="skip the TCP capture stage (no process "
                             "clusters)")
    parser.add_argument("--child", choices=("streaming", "offline"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args.child, args.ops)
    if args.ops < 8:
        parser.error("--ops must be at least 8")

    output_dir = os.path.dirname(os.path.abspath(args.output))
    os.makedirs(output_dir, exist_ok=True)

    started = time.perf_counter()
    print("streaming series:")
    streaming = run_streaming_series(args.ops)
    print("offline compare:")
    offline = run_offline_compare(args.compare_ops)
    equivalent = check_equivalence(args.compare_ops)
    tcp_capture: dict | None = None
    if not args.skip_tcp:
        print("tcp capture:")
        tcp_capture = run_tcp_capture()
    wall_clock = time.perf_counter() - started

    violations = (sum(row["violations"] for row in streaming["series"])
                  + offline["violations"]
                  + (tcp_capture["violations"] if tcp_capture else 0))
    report = {
        "benchmark": "checker",
        "window_ops": WINDOW_OPS,
        "chunk_ops": CHUNK_OPS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "wall_clock_seconds": round(wall_clock, 3),
        "streaming": streaming,
        "offline": offline,
        "equivalent": equivalent,
        "violations": violations,
        "tcp_capture": tcp_capture,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"checker benchmark: {args.ops:,} ops max in {wall_clock:.1f}s, "
          f"memory growth {streaming['memory_growth']:.2f}x over 8x history "
          f"-> {args.output}")
    if not equivalent:
        print("ERROR: windowed and offline reports differ",
              file=sys.stderr)
        return 1
    if violations:
        print(f"ERROR: {violations} violations on violation-free histories",
              file=sys.stderr)
        return 1
    if tcp_capture is not None and tcp_capture["chunks_ingested"] == 0:
        print("ERROR: TCP run streamed no observation chunks",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

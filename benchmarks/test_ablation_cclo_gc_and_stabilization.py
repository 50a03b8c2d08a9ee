"""Ablations of CC-LO's reader-record GC and of the stabilization interval.

* CC-LO GC window — the paper's optimised implementation garbage-collects a
  ROT id 500 ms after it enters the old-reader records (the original
  COPS-SNOW used 5 s) and compresses responses to one id per client; both
  knobs trade metadata volume for staleness of what a barred ROT can read.
* Stabilization interval — Contrarian's GSS is refreshed every 5 ms in the
  paper; a much longer interval increases snapshot staleness but the protocol
  stays nonblocking and its performance is essentially unchanged, showing the
  cost of the stabilization protocol is marginal.
"""

from repro.harness.ablations import (
    cclo_gc_ablation,
    stabilization_interval_ablation,
)

from bench_utils import run_once


def test_ablation_cclo_gc_window_and_compression(benchmark, bench_config):
    def measure():
        results = cclo_gc_ablation(32, bench_config)
        return {"gc=500ms, 1-id/client": results["optimized"],
                "gc=5000ms, 1-id/client": results["long-gc"],
                "gc=500ms, no compression": results["no-compression"]}

    results = run_once(benchmark, measure)
    for label, result in results.items():
        print(f"\n{label}: throughput={result.throughput_kops:.1f} Kops/s, "
              f"distinct ids/check="
              f"{result.overhead.average_distinct_ids_per_check():.1f}, "
              f"cumulative ids/check="
              f"{result.overhead.average_cumulative_ids_per_check():.1f}")

    optimized = results["gc=500ms, 1-id/client"]
    long_gc = results["gc=5000ms, 1-id/client"]
    uncompressed = results["gc=500ms, no compression"]

    # The paper's optimisations reduce the ids exchanged per readers check.
    assert optimized.overhead.average_distinct_ids_per_check() <= \
        long_gc.overhead.average_distinct_ids_per_check()
    assert optimized.overhead.average_cumulative_ids_per_check() <= \
        uncompressed.overhead.average_cumulative_ids_per_check()
    # Less metadata translates into equal or better throughput.
    assert optimized.throughput_kops >= long_gc.throughput_kops * 0.9


def test_ablation_stabilization_interval(benchmark, bench_config):
    def measure():
        results = stabilization_interval_ablation(16, (5.0, 50.0), bench_config)
        return {f"{interval:g}ms": result for interval, result in results.items()}

    results = run_once(benchmark, measure)
    for label, result in results.items():
        print(f"\nstabilization={label}: throughput={result.throughput_kops:.1f} "
              f"Kops/s, rot={result.rot_mean_ms:.3f} ms, "
              f"stabilization msgs={result.overhead.stabilization_messages}")
    # A coarser stabilization interval sends fewer messages...
    assert results["50ms"].overhead.stabilization_messages < \
        results["5ms"].overhead.stabilization_messages
    # ...without changing throughput or latency materially, and without ever
    # blocking reads (the nonblocking property does not rely on freshness).
    assert results["50ms"].overhead.blocked_reads == 0
    assert abs(results["50ms"].throughput_kops - results["5ms"].throughput_kops) \
        / results["5ms"].throughput_kops < 0.2

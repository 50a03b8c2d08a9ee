"""Ablations of Contrarian's design choices: ROT rounds and clock family.

* 1 1/2 vs 2 rounds — the half round saves one network hop per ROT (lower
  latency at low load) at the cost of more messages (slightly lower peak
  throughput), Section 5.3 of the paper.
* HLC vs plain logical vs physical clocks — HLCs keep ROTs nonblocking (like
  logical clocks) while keeping snapshots fresh (like physical clocks);
  physical clocks make reads block on clock skew, which is Cure's handicap.
"""

from repro.harness.ablations import clock_mode_ablation, rot_rounds_ablation
from repro.harness.report import latency_at_lowest_load, peak_throughput

from bench_utils import BENCH_SWEEP, run_once


def test_ablation_rot_rounds(benchmark, bench_config):
    series = run_once(benchmark, rot_rounds_ablation, BENCH_SWEEP, bench_config)
    low_15 = latency_at_lowest_load(series["1.5-rounds"])
    low_2 = latency_at_lowest_load(series["2-rounds"])
    print(f"\nlow-load ROT latency: 1.5 rounds={low_15:.3f} ms, 2 rounds={low_2:.3f} ms")
    print(f"peak throughput: 1.5 rounds={peak_throughput(series['1.5-rounds']):.1f} "
          f"Kops/s, 2 rounds={peak_throughput(series['2-rounds']):.1f} Kops/s")
    # The extra half round costs one network hop at low load.
    assert low_15 < low_2
    # Peak throughputs stay within a modest factor of each other (the paper
    # reports ~8% in favour of 2 rounds; the direction can fluctuate at bench
    # scale, so only closeness is asserted).
    ratio = peak_throughput(series["2-rounds"]) / peak_throughput(series["1.5-rounds"])
    assert 0.75 < ratio < 1.35


def test_ablation_clock_modes(benchmark, bench_config):
    results = run_once(benchmark, clock_mode_ablation, 16, bench_config)
    for mode, result in results.items():
        print(f"\nclock={mode}: rot={result.rot_mean_ms:.3f} ms, "
              f"blocked_reads={result.overhead.blocked_reads}")
    # HLC and logical clocks never block; physical clocks do.
    assert results["hlc"].overhead.blocked_reads == 0
    assert results["logical"].overhead.blocked_reads == 0
    assert results["physical"].overhead.blocked_reads > 0
    # Blocking translates into higher ROT latency for the physical variant.
    assert results["physical"].rot_mean_ms > results["hlc"].rot_mean_ms

#!/usr/bin/env python
"""Diff a fresh checker benchmark report against the committed baseline.

CI regenerates ``BENCH_checker.json`` on every push and runs::

    python benchmarks/bench_compare.py \
        --baseline benchmarks/results/BENCH_checker.json \
        --current BENCH_checker.json

``checker`` is the only report kind; a baseline of any other kind is
rejected.  The comparison **fails** (exit 1) when windowed (``streaming``)
or offline checking throughput regresses more than ``--tolerance`` (default
25%) below the committed baseline, when the windowed checker's peak-memory
growth over the 8x history-length series exceeds ``--max-memory-growth``
(default 2.0 — the bounded-memory gate: O(window) memory must stay flat
while history length scales), or when the current run's windowed and
offline reports were not byte-identical.

Improvements are reported but never fail; after an intentional performance
change, regenerate the baseline and commit it alongside the code.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Allowed slowdown vs baseline before the comparison fails (fraction).
DEFAULT_TOLERANCE = 0.25
#: Allowed streaming-checker peak-RSS growth across the 8x history-length
#: series (1.0 = perfectly flat; O(history) growth would approach 8x).
DEFAULT_MAX_MEMORY_GROWTH = 2.0


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _compare_rate(label: str, base_value: float, cur_value: float,
                  tolerance: float, failures: list[str]) -> None:
    change = (cur_value - base_value) / base_value
    verdict = "ok"
    if change < -tolerance:
        verdict = "REGRESSION"
        failures.append(
            f"{label}: {cur_value:,.0f} is {-change * 100:.1f}% below the "
            f"baseline {base_value:,.0f} (tolerance {tolerance * 100:.0f}%)")
    print(f"  {label:<28} {base_value:>12,.0f} -> {cur_value:>12,.0f} "
          f"({change * +100:+.1f}%) {verdict}")


def compare_checker(baseline: dict, current: dict, tolerance: float,
                    max_memory_growth: float) -> list[str]:
    """Gate a checker report: throughput, bounded memory, equivalence."""
    failures: list[str] = []
    _compare_rate("streaming ops_s",
                  baseline["streaming"]["ops_s"],
                  current["streaming"]["ops_s"], tolerance, failures)
    _compare_rate("offline ops_s",
                  baseline["offline"]["ops_s"],
                  current["offline"]["ops_s"], tolerance, failures)
    growth = current["streaming"]["memory_growth"]
    series = current["streaming"]["series"]
    span = (series[-1]["ops"] / series[0]["ops"]) if series else 0
    print(f"  streaming memory growth: {growth:.2f}x over {span:.0f}x "
          f"history (allowed: {max_memory_growth:.1f}x)")
    if growth > max_memory_growth:
        failures.append(
            f"streaming peak memory grew {growth:.2f}x over a {span:.0f}x "
            f"history-length span (allowed {max_memory_growth:.1f}x) — "
            f"memory is no longer bounded by the window")
    equivalent = current.get("equivalent", False)
    print(f"  windowed/offline reports identical: {equivalent}")
    if not equivalent:
        failures.append(
            "windowed and offline checking no longer produce "
            "byte-identical reports")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed checker-report baseline JSON")
    parser.add_argument("--current", required=True,
                        help="freshly measured checker-report JSON")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional slowdown before failing "
                             "(default: %(default)s)")
    parser.add_argument("--max-memory-growth", type=float,
                        default=DEFAULT_MAX_MEMORY_GROWTH,
                        help="allowed streaming-checker memory growth over "
                             "the history-length series "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    print(f"comparing {args.current} against baseline {args.baseline}:")
    baseline, current = load(args.baseline), load(args.current)
    if baseline.get("benchmark") != "checker":
        parser.error(f"{args.baseline} is a "
                     f"{baseline.get('benchmark')!r} report; only "
                     f"'checker' reports can be compared")
    failures = compare_checker(baseline, current, args.tolerance,
                               args.max_memory_growth)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("benchmark comparison passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

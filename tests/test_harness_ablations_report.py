"""Tests for harness/report.py formatting and harness/ablations.py studies."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.harness.ablations import (
    cclo_gc_ablation,
    clock_mode_ablation,
    rot_rounds_ablation,
    stabilization_interval_ablation,
)
from repro.harness.report import (
    crossover_load,
    format_series,
    format_table,
    latency_at_lowest_load,
    peak_throughput,
)
from repro.metrics.collectors import RunResult
from repro.metrics.latency import LatencySummary
from repro.metrics.overheads import OverheadCounters


def _result(clients: int, throughput: float, rot_mean: float) -> RunResult:
    summary = LatencySummary(count=100, mean_ms=rot_mean, p50_ms=rot_mean,
                             p95_ms=rot_mean * 2, p99_ms=rot_mean * 3,
                             max_ms=rot_mean * 4)
    return RunResult(protocol="x", num_dcs=1, clients=clients,
                     throughput_kops=throughput, rot_latency=summary,
                     put_latency=summary, rots_completed=100,
                     puts_completed=10, overhead=OverheadCounters(),
                     cpu_utilization=0.5)


class TestFormatTable:
    def test_aligns_columns(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert all(len(line) == len(lines[0]) for line in lines[1:])
        assert "long-name" in lines[3]

    def test_header_wider_than_cells(self):
        text = format_table(["a-wide-header"], [["x"]])
        assert "a-wide-header" in text


class TestFormatSeries:
    def test_one_row_per_result(self):
        series = {"sys-a": [_result(4, 10.0, 0.5), _result(8, 20.0, 0.6)],
                  "sys-b": [_result(4, 5.0, 0.4)]}
        text = format_series(series)
        assert text.count("sys-a") == 2
        assert text.count("sys-b") == 1
        assert "ROT avg (ms)" in text
        assert "ROT p99 (ms)" not in text

    def test_p99_column_is_optional(self):
        text = format_series({"s": [_result(4, 10.0, 0.5)]}, include_p99=True)
        assert "ROT p99 (ms)" in text
        assert "1.500" in text  # p99 = mean * 3


class TestSweepStatistics:
    def test_peak_throughput(self):
        sweep = [_result(4, 10.0, 0.5), _result(16, 30.0, 0.8),
                 _result(64, 25.0, 2.0)]
        assert peak_throughput(sweep) == 30.0
        assert peak_throughput([]) == 0.0

    def test_latency_at_lowest_load(self):
        sweep = [_result(16, 30.0, 0.8), _result(4, 10.0, 0.5)]
        assert latency_at_lowest_load(sweep) == 0.5
        assert latency_at_lowest_load([]) == 0.0

    def test_crossover_load_found(self):
        reference = [_result(4, 10.0, 0.5), _result(16, 30.0, 1.0)]
        challenger = [_result(4, 9.0, 0.8), _result(16, 28.0, 0.9)]
        assert crossover_load(reference, challenger) == 28.0

    def test_crossover_load_absent(self):
        reference = [_result(4, 10.0, 0.5)]
        challenger = [_result(4, 9.0, 0.8)]
        assert crossover_load(reference, challenger) is None


#: Tiny configuration so each ablation study stays a sub-second simulation
#: (4 partitions minimum: the default workload reads 4 partitions per ROT).
TINY = ClusterConfig.test_scale(clients_per_dc=3, keys_per_partition=32,
                                warmup_seconds=0.05, duration_seconds=0.25)


@pytest.mark.slow
class TestAblations:
    def test_rot_rounds_ablation_shapes(self):
        study = rot_rounds_ablation(client_counts=(2, 4), config=TINY)
        assert set(study) == {"1.5-rounds", "2-rounds"}
        for results in study.values():
            assert [result.clients for result in results] == [2, 4]
            assert all(result.rots_completed > 0 for result in results)

    def test_clock_mode_ablation_covers_all_modes(self):
        study = clock_mode_ablation(clients=2, config=TINY)
        assert set(study) == {"hlc", "logical", "physical"}
        # Physical clocks block ROTs on skew; HLC must not.
        assert study["hlc"].overhead.blocked_reads == 0
        assert study["physical"].overhead.blocked_reads > 0

    def test_cclo_gc_ablation_variants(self):
        study = cclo_gc_ablation(clients=3, config=TINY)
        assert set(study) == {"optimized", "long-gc", "no-compression"}
        assert all(result.protocol == "cc-lo" for result in study.values())
        # Without compression a readers check carries at least as many ids.
        assert (study["no-compression"].overhead.average_cumulative_ids_per_check()
                >= study["optimized"].overhead.average_cumulative_ids_per_check())

    def test_stabilization_interval_ablation_keys(self):
        study = stabilization_interval_ablation(
            clients=2, intervals_ms=(5.0, 20.0), config=TINY)
        assert set(study) == {5.0, 20.0}
        for result in study.values():
            assert result.overhead.stabilization_messages > 0

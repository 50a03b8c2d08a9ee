"""Tests for latency recording, run-level aggregation and overhead counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collectors import MetricsRegistry
from repro.metrics.latency import LatencyRecorder, LatencySummary, percentile
from repro.metrics.overheads import OverheadCounters


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.99) == 0.0

    def test_bounds(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 3.0

    def test_median_of_odd_list(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_p99_close_to_max(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.99) in (99.0, 100.0)


class TestLatencyRecorder:
    def test_summary_of_empty_recorder(self):
        summary = LatencyRecorder().summary()
        assert summary == LatencySummary.empty()
        assert summary.count == 0

    def test_mean_and_max_in_milliseconds(self):
        recorder = LatencyRecorder()
        recorder.record(0.001)
        recorder.record(0.003)
        summary = recorder.summary()
        assert summary.count == 2
        assert summary.mean_ms == pytest.approx(2.0)
        assert summary.max_ms == pytest.approx(3.0)

    def test_merge(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.record(0.001)
        b.record(0.002)
        a.merge(b)
        assert a.count == 2

    def test_samples_ms(self):
        recorder = LatencyRecorder()
        recorder.record(0.0005)
        assert recorder.samples_ms() == [pytest.approx(0.5)]

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_are_ordered(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        summary = recorder.summary()
        assert summary.p50_ms <= summary.p95_ms <= summary.p99_ms <= summary.max_ms
        # Tolerate float summation rounding when all samples are equal.
        assert summary.mean_ms <= summary.max_ms * (1 + 1e-12) + 1e-12


class TestMetricsRegistry:
    def test_warmup_operations_are_ignored(self):
        registry = MetricsRegistry(warmup_seconds=1.0)
        registry.record_rot(0.5, 0.9)     # completes during warmup
        registry.record_rot(0.9, 1.5)     # completes after warmup
        registry.record_put(0.2, 0.4)
        assert registry.rots_completed == 1
        assert registry.puts_completed == 0

    def test_note_issue_counters(self):
        registry = MetricsRegistry()
        registry.note_issue(is_put=True)
        registry.note_issue(is_put=False)
        registry.note_issue(is_put=False)
        assert registry.puts_issued == 1
        assert registry.rots_issued == 2

    def test_finalize_produces_run_result(self):
        registry = MetricsRegistry(warmup_seconds=0.0)
        for start in range(10):
            registry.record_rot(start * 0.1, start * 0.1 + 0.002)
        registry.record_put(0.0, 0.001)
        result = registry.finalize(protocol="contrarian", num_dcs=1, clients=4,
                                   measurement_seconds=2.0,
                                   overhead=OverheadCounters(),
                                   cpu_utilization=0.5, label="test")
        assert result.throughput_kops == pytest.approx(11 / 2.0 / 1000.0)
        assert result.rot_mean_ms == pytest.approx(2.0)
        assert result.put_mean_ms == pytest.approx(1.0)
        assert result.rots_completed == 10
        assert result.label == "test"

    def test_as_row_is_flat_and_rounded(self):
        registry = MetricsRegistry()
        registry.record_rot(0.0, 0.001)
        result = registry.finalize(protocol="cure", num_dcs=2, clients=8,
                                   measurement_seconds=1.0,
                                   overhead=OverheadCounters(),
                                   cpu_utilization=0.25)
        row = result.as_row()
        assert row["protocol"] == "cure"
        assert row["dcs"] == 2
        assert isinstance(row["throughput_kops"], float)
        assert "rot_avg_ms" in row and "rot_p99_ms" in row

    def test_zero_measurement_window(self):
        registry = MetricsRegistry()
        result = registry.finalize(protocol="x", num_dcs=1, clients=1,
                                   measurement_seconds=0.0,
                                   overhead=OverheadCounters(),
                                   cpu_utilization=0.0)
        assert result.throughput_kops == 0.0


class TestOverheadCounters:
    def test_record_readers_check(self):
        counters = OverheadCounters()
        counters.record_readers_check(distinct_ids=10, cumulative_ids=25,
                                      partitions_contacted=3)
        counters.record_readers_check(distinct_ids=20, cumulative_ids=35,
                                      partitions_contacted=5)
        assert counters.readers_checks == 2
        assert counters.average_distinct_ids_per_check() == pytest.approx(15.0)
        assert counters.average_cumulative_ids_per_check() == pytest.approx(30.0)
        assert counters.average_partitions_per_check() == pytest.approx(4.0)

    def test_averages_with_no_checks(self):
        counters = OverheadCounters()
        assert counters.average_distinct_ids_per_check() == 0.0
        assert counters.average_cumulative_ids_per_check() == 0.0
        assert counters.average_partitions_per_check() == 0.0

    def test_merge_accumulates_everything(self):
        a, b = OverheadCounters(), OverheadCounters()
        a.messages_sent = 10
        a.record_readers_check(5, 8, 2)
        b.messages_sent = 7
        b.blocked_reads = 3
        b.record_readers_check(1, 1, 1)
        a.merge(b)
        assert a.messages_sent == 17
        assert a.blocked_reads == 3
        assert a.readers_checks == 2
        assert a.rot_ids_distinct == 5 + 1

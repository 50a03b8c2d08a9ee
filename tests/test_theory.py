"""Tests for the Theorem 1 machinery (Section 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TheoryError
from repro.metrics.collectors import RunResult
from repro.metrics.latency import LatencySummary
from repro.metrics.overheads import OverheadCounters
from repro.theory.executions import (
    LamportOnlyProtocol,
    ReaderTrackingProtocol,
    X0,
    Y0,
    Y1,
    build_execution,
    communication_signature,
    find_causal_violation,
    lemma1_holds,
)
from repro.theory.lower_bound import (
    ROT_ID_BITS,
    executions_count,
    lower_bound_bits,
    measured_bits_per_dangerous_put,
    verify_bound_against_measurement,
)

CLIENTS = ("c1", "c2", "c3", "c4")


class TestExecutionConstruction:
    def test_readers_see_old_x_and_old_y_when_tracked(self):
        outcome = build_execution(ReaderTrackingProtocol(), CLIENTS[:2],
                                  delayed_readers=CLIENTS[:1])
        assert outcome.late_read_results["c1"] == (X0, Y0)
        assert not outcome.violates_causal_consistency()

    def test_straw_man_returns_inconsistent_snapshot(self):
        outcome = build_execution(LamportOnlyProtocol(), CLIENTS[:2],
                                  delayed_readers=CLIENTS[:1])
        assert outcome.late_read_results["c1"] == (X0, Y1)
        assert outcome.violates_causal_consistency()

    def test_delayed_readers_must_be_readers(self):
        with pytest.raises(TheoryError):
            build_execution(ReaderTrackingProtocol(), ("c1",),
                            delayed_readers=("c2",))

    def test_signature_lists_old_readers_for_tracking_protocol(self):
        signature = communication_signature(ReaderTrackingProtocol(), CLIENTS[:3])
        assert len(signature) == 3
        assert all(entry.startswith("old-reader:") for entry in signature)

    def test_signature_is_constant_size_for_straw_man(self):
        protocol = LamportOnlyProtocol()
        assert len(communication_signature(protocol, CLIENTS[:1])) == 1
        assert len(communication_signature(protocol, CLIENTS[:4])) == 1


class TestLemma1:
    def test_holds_for_reader_tracking_protocol(self):
        assert lemma1_holds(ReaderTrackingProtocol(), CLIENTS)

    def test_fails_for_straw_man_protocol(self):
        assert not lemma1_holds(LamportOnlyProtocol(), CLIENTS)

    def test_violation_found_only_for_straw_man(self):
        assert find_causal_violation(ReaderTrackingProtocol(), CLIENTS) is None
        violation = find_causal_violation(LamportOnlyProtocol(), CLIENTS)
        assert violation is not None
        assert violation.violates_causal_consistency()

    def test_subset_enumeration_is_bounded(self):
        with pytest.raises(TheoryError):
            lemma1_holds(ReaderTrackingProtocol(), tuple(f"c{i}" for i in range(20)))


class TestLemma2:
    def test_executions_count_is_exponential(self):
        assert executions_count(0) == 1
        assert executions_count(5) == 32

    def test_lower_bound_is_linear(self):
        assert lower_bound_bits(0) == 0
        assert lower_bound_bits(256) == 256

    def test_negative_clients_rejected(self):
        with pytest.raises(TheoryError):
            lower_bound_bits(-1)
        with pytest.raises(TheoryError):
            executions_count(-1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_bound_grows_monotonically(self, clients):
        assert lower_bound_bits(clients + 1) > lower_bound_bits(clients) - 1


def fake_run_result(clients, distinct_ids_per_check):
    counters = OverheadCounters()
    counters.record_readers_check(distinct_ids=distinct_ids_per_check,
                                  cumulative_ids=distinct_ids_per_check,
                                  partitions_contacted=1)
    return RunResult(protocol="cc-lo", num_dcs=1, clients=clients,
                     throughput_kops=1.0, rot_latency=LatencySummary.empty(),
                     put_latency=LatencySummary.empty(), rots_completed=1,
                     puts_completed=1, overhead=counters, cpu_utilization=0.1)


class TestBoundVersusMeasurement:
    def test_measured_bits_use_rot_id_size(self):
        result = fake_run_result(clients=10, distinct_ids_per_check=10)
        assert measured_bits_per_dangerous_put(result) == 10 * ROT_ID_BITS

    def test_comparison_reports_bound_satisfied(self):
        result = fake_run_result(clients=16, distinct_ids_per_check=16)
        comparison = verify_bound_against_measurement(result)
        assert comparison.lower_bound_bits == 16
        assert comparison.measured_exceeds_bound
        assert comparison.ratio >= 1.0

    def test_ratio_with_zero_bound(self):
        result = fake_run_result(clients=0, distinct_ids_per_check=1)
        assert verify_bound_against_measurement(result).ratio == float("inf")

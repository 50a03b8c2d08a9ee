"""Tests for the Theorem 1 machinery (Section 6)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partitioning import HashPartitioner
from repro.core.common.messages import ReadersCheckReply, ReadersCheckRequest
from repro.errors import TheoryError
from repro.metrics.collectors import RunResult
from repro.metrics.latency import LatencySummary
from repro.metrics.overheads import OverheadCounters
from repro.theory.executions import (
    LAMPORT_ONLY,
    X0,
    Y0,
    Y1,
    build_execution,
    communication_signature,
    construction_summary,
    find_causal_violation,
    lemma1_holds,
    reader_subsets,
)
from repro.theory.lower_bound import (
    ROT_ID_BITS,
    executions_count,
    lower_bound_bits,
    measured_bits_per_dangerous_put,
    verify_bound_against_measurement,
)
from repro.wire import decode, encode

X = HashPartitioner.structured_key(0, 0)
Y = HashPartitioner.structured_key(1, 0)

#: The construction at |D| = 4: distinct signatures of the 16 E(R), E*(R, {c})
#: runs the checker flags (of 32), and the most bits one E(R) communicates.
TABLE_AT_4 = {
    "cc-lo": (16, 0, 2096),
    "lamport-only": (5, 32, 1360),
    "contrarian": (1, 0, 0),
    "cure": (1, 0, 0),
}
PROTOCOLS = {"cc-lo": "cc-lo", "lamport-only": LAMPORT_ONLY,
             "contrarian": "contrarian", "cure": "cure"}


class TestExecutionConstruction:
    @pytest.mark.parametrize("name", sorted(TABLE_AT_4))
    def test_table_at_four_readers(self, name):
        assert construction_summary(PROTOCOLS[name], 4) == TABLE_AT_4[name]

    @pytest.mark.parametrize("name", sorted(TABLE_AT_4))
    def test_same_readers_same_signature(self, name):
        assert communication_signature(PROTOCOLS[name], (1, 3)) \
            == communication_signature(PROTOCOLS[name], (1, 3))

    def test_signature_is_the_readers_checks_on_the_wire(self):
        signature = communication_signature("cc-lo", (1, 2))
        messages = [decode(entry) for entry in signature]
        # PUT(x, X1) checks Y0's readers at py, PUT(y, Y1) X1's at px: only
        # server-to-server messages, each the encoding of what was delivered.
        assert [type(message) for message in messages] == [
            ReadersCheckRequest, ReadersCheckReply] * 2
        assert [encode(message) for message in messages] == list(signature)
        assert sorted(rot_id for rot_id, _ in messages[-1].old_readers) \
            == ["client-dc0-1#1", "client-dc0-2#1"]

    def test_only_cclo_signature_grows_with_the_readers(self):
        bits = [construction_summary("cc-lo", readers)[2]
                for readers in (1, 2, 4, 6)]
        assert bits == sorted(set(bits))
        for readers, measured in zip((1, 2, 4, 6), bits):
            assert measured >= lower_bound_bits(readers)
        # ROT_ID_BITS is a floor: one more reader costs the PUTs more.
        assert bits[1] - bits[0] >= ROT_ID_BITS
        # The straw man's Lamport timestamps cost the same for any |D|.
        assert {construction_summary(LAMPORT_ONLY, readers)[2]
                for readers in (1, 2, 4, 6)} == {1360}

    def test_cclo_delayed_reader_keeps_the_old_snapshot(self):
        outcome = build_execution("cc-lo", (1, 2), delayed_readers=(1,))
        assert outcome.snapshots == {1: (X0, Y0), 2: (X0, Y0)}
        assert outcome.report.ok and outcome.report.rots == 2

    def test_straw_man_violation_names_the_newer_y(self):
        outcome = build_execution(LAMPORT_ONLY, (1, 2), delayed_readers=(1,))
        assert outcome.snapshots[1] == (X0, Y1)
        [violation] = outcome.report.snapshot_violations
        # The y the delayed reader got (Y1, by its label) depends on an x
        # newer than the X0 it got.
        match = re.match(rf"ROT client-dc0-1#1: returned {X}@(\d+) but "
                         rf"{Y}@\d+ causally depends on {X}@(\d+)", violation)
        assert match is not None, violation
        returned_x, required_x = map(int, match.groups())
        assert returned_x < required_x

    def test_delayed_readers_must_be_readers(self):
        with pytest.raises(TheoryError):
            build_execution("cc-lo", (1,), delayed_readers=(2,))

    def test_readers_are_clients_one_to_sixteen(self):
        with pytest.raises(TheoryError):
            build_execution("cc-lo", (0,))
        with pytest.raises(TheoryError):
            build_execution("cc-lo", (17,))


class TestLemma1:
    def test_holds_for_cclo_only(self):
        assert lemma1_holds("cc-lo", 3)
        assert not lemma1_holds(LAMPORT_ONLY, 3)
        assert not lemma1_holds("contrarian", 3)

    def test_violation_found_only_for_straw_man(self):
        for protocol in ("cc-lo", "contrarian", "cure"):
            assert find_causal_violation(protocol, 3) is None
        violation = find_causal_violation(LAMPORT_ONLY, 3)
        assert violation is not None
        assert violation.snapshots[1] == (X0, Y1)
        assert violation.report.snapshot_violations

    def test_subset_enumeration_is_bounded(self):
        assert len(reader_subsets(4)) == executions_count(4)
        with pytest.raises(TheoryError):
            lemma1_holds("cc-lo", 17)


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

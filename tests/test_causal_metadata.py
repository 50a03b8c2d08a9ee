"""Tests for vectors, the GSS stabilization state and dependency contexts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal.dependencies import ClientDependencyContext, Dependency
from repro.causal.stabilization import GlobalStableSnapshot
from repro.causal.vectors import (
    entrywise_max,
    entrywise_min,
    entrywise_min_all,
    vector_leq,
    with_entry,
    zero_vector,
)
from repro.errors import ProtocolError

vectors = st.lists(st.integers(min_value=0, max_value=1_000_000),
                   min_size=1, max_size=5)


def vectors_of(width):
    # A small range, so that ties and equal vectors are common.
    return st.lists(st.integers(min_value=0, max_value=4), min_size=width,
                    max_size=width).map(tuple)


#: One to four vectors of one width (1-5).
same_width = st.integers(min_value=1, max_value=5).flatmap(
    lambda width: st.lists(vectors_of(width), min_size=1, max_size=4))
#: Two vectors of different widths.
mismatched = st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
    lambda widths: widths[0] != widths[1]).flatmap(
    lambda widths: st.tuples(vectors_of(widths[0]), vectors_of(widths[1])))


# The definitions the functions of ``repro.causal.vectors`` must equal.
def reference_max(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_min(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def reference_leq(a, b):
    return all(x <= y for x, y in zip(a, b))


class TestVectorHelpers:
    def test_zero_vector(self):
        assert zero_vector(3) == (0, 0, 0)

    def test_zero_vector_requires_positive_length(self):
        with pytest.raises(ProtocolError):
            zero_vector(0)

    def test_entrywise_max(self):
        assert entrywise_max((1, 5), (3, 2)) == (3, 5)

    def test_entrywise_min(self):
        assert entrywise_min((1, 5), (3, 2)) == (1, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            entrywise_max((1,), (1, 2))

    def test_min_all(self):
        assert entrywise_min_all([(3, 4), (1, 9), (2, 2)]) == (1, 2)

    def test_min_all_empty_rejected(self):
        with pytest.raises(ProtocolError):
            entrywise_min_all([])

    def test_vector_leq(self):
        assert vector_leq((1, 2), (1, 3))
        assert not vector_leq((2, 2), (1, 3))

    def test_with_entry(self):
        assert with_entry((1, 2, 3), 1, 9) == (1, 9, 3)

    def test_with_entry_out_of_range(self):
        with pytest.raises(ProtocolError):
            with_entry((1, 2), 5, 0)

    @given(vectors, vectors)
    @settings(max_examples=100, deadline=None)
    def test_max_dominates_both(self, a, b):
        size = min(len(a), len(b))
        a, b = tuple(a[:size]), tuple(b[:size])
        merged = entrywise_max(a, b)
        assert vector_leq(a, merged)
        assert vector_leq(b, merged)

    @given(vectors, vectors)
    @settings(max_examples=100, deadline=None)
    def test_min_is_dominated_by_both(self, a, b):
        size = min(len(a), len(b))
        a, b = tuple(a[:size]), tuple(b[:size])
        merged = entrywise_min(a, b)
        assert vector_leq(merged, a)
        assert vector_leq(merged, b)

    @given(vectors)
    @settings(max_examples=50, deadline=None)
    def test_leq_is_reflexive(self, a):
        assert vector_leq(tuple(a), tuple(a))

    @given(same_width)
    @settings(max_examples=300, deadline=None)
    def test_every_function_equals_its_definition(self, rows):
        a, b = rows[0], rows[-1]  # the same vector when there is one row
        for x, y in ((a, b), (b, a), (a, a), (list(a), b)):
            assert entrywise_max(x, y) == reference_max(x, y)
            assert entrywise_min(x, y) == reference_min(x, y)
            assert vector_leq(x, y) is reference_leq(x, y)
        folded = rows[0]
        for row in rows[1:]:
            folded = reference_min(folded, row)
        assert entrywise_min_all(rows) == folded
        assert entrywise_min_all(row for row in rows) == folded
        assert entrywise_min_all([a]) == a
        assert all(type(result) is tuple for result in (
            entrywise_max(list(a), list(b)), entrywise_min(list(a), list(b)),
            entrywise_min_all([list(a)])))

    @given(mismatched)
    @settings(max_examples=100, deadline=None)
    def test_every_function_rejects_a_length_mismatch(self, pair):
        a, b = pair
        for function in (entrywise_max, entrywise_min, vector_leq):
            with pytest.raises(ProtocolError, match="length mismatch"):
                function(a, b)
        for rows in ([a, b], [a, a, b], (row for row in (b, a))):
            with pytest.raises(ProtocolError, match="length mismatch"):
                entrywise_min_all(rows)

    def test_min_all_of_an_empty_generator_rejected(self):
        with pytest.raises(ProtocolError, match="at least one"):
            entrywise_min_all(row for row in ())


class TestGlobalStableSnapshot:
    def test_initial_gss_is_zero(self):
        gss = GlobalStableSnapshot(num_dcs=2, num_partitions=3, partition_index=0)
        assert gss.gss == (0, 0)

    def test_gss_is_minimum_of_known_vvs(self):
        gss = GlobalStableSnapshot(num_dcs=2, num_partitions=2, partition_index=0)
        gss.update_local_vv((10, 20))
        gss.observe_remote_vv(1, (5, 30), (0, 0))
        assert gss.gss == (5, 20)

    def test_vv_entries_never_move_backwards(self):
        gss = GlobalStableSnapshot(num_dcs=1, num_partitions=2, partition_index=0)
        gss.update_local_vv((10,))
        gss.observe_remote_vv(1, (8,), (0,))
        gss.observe_remote_vv(1, (4,), (0,))  # reordered, older message
        assert gss.gss == (8,)

    def test_a_broadcast_carries_the_gss_of_the_previous_one(self):
        gss = GlobalStableSnapshot(num_dcs=1, num_partitions=2, partition_index=0)
        gss.observe_remote_vv(1, (7,), (0,))
        assert gss.update_local_vv((10,)) == (0,)
        assert gss.gss == (7,)
        gss.observe_remote_vv(1, (9,), (4,))
        assert gss.update_local_vv((12,)) == (7,)
        assert gss.gss == (9,)
        # The floor: the peer's previous-broadcast GSS (4) and this
        # partition's own (7), never the current GSS.
        assert gss.gc_floor() == (4,)

    def test_wrong_vector_length_rejected(self):
        gss = GlobalStableSnapshot(num_dcs=2, num_partitions=1, partition_index=0)
        with pytest.raises(ProtocolError):
            gss.update_local_vv((1,))

    def test_partition_index_validated(self):
        with pytest.raises(ProtocolError):
            GlobalStableSnapshot(num_dcs=1, num_partitions=2, partition_index=5)

    def test_gss_never_exceeds_any_known_vv(self):
        gss = GlobalStableSnapshot(num_dcs=2, num_partitions=3, partition_index=0)
        gss.update_local_vv((100, 50))
        gss.observe_remote_vv(1, (60, 80), (0, 0))
        gss.observe_remote_vv(2, (90, 10), (0, 0))
        assert gss.gss == (60, 10)


    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_gss_equals_a_from_scratch_recomputation(self, data):
        """Whatever is recorded in whatever order (older, reordered VVs
        included), the incrementally kept GSS, which never moves backwards,
        and the GC floor are what replaying the whole history through the
        definitions gives."""
        num_dcs = data.draw(st.integers(1, 4))
        num_partitions = data.draw(st.integers(1, 4))
        own = data.draw(st.integers(0, num_partitions - 1))
        vv = vectors_of(num_dcs)
        calls = data.draw(st.lists(st.one_of(
            st.tuples(st.just("local"), vv),
            st.tuples(st.just("remote"), st.integers(0, num_partitions - 1),
                      vv, vv)), max_size=30))
        state = GlobalStableSnapshot(num_dcs, num_partitions, own)
        zero = (0,) * num_dcs
        known = [zero] * num_partitions
        floors = [zero] * num_partitions
        expected = broadcast_gss = zero
        for call in calls:
            if call[0] == "local":
                index, vector = own, call[1]
                assert state.update_local_vv(vector) == broadcast_gss
                floors[own] = broadcast_gss
            else:
                _, index, vector, previous = call
                state.observe_remote_vv(index, vector, previous)
                floors[index] = previous
            known[index] = reference_max(known[index], vector)
            before, expected = expected, tuple(min(column)
                                               for column in zip(*known))
            assert state.gss == expected
            assert reference_max(before, expected) == expected
            if call[0] == "local":
                broadcast_gss = expected
            assert state.gc_floor() == tuple(min(column)
                                             for column in zip(*floors))


class TestClientDependencyContext:
    def test_observe_read_records_dependency(self):
        context = ClientDependencyContext()
        context.observe_read("x", 5, partition=1, origin_dc=0)
        assert context.dependencies() == (Dependency("x", 5, 1, 0),)

    def test_newer_read_replaces_older(self):
        context = ClientDependencyContext()
        context.observe_read("x", 5, 1)
        context.observe_read("x", 9, 1)
        context.observe_read("x", 3, 1)
        assert context.dependencies()[0].timestamp == 9

    def test_write_subsumes_previous_context(self):
        context = ClientDependencyContext()
        context.observe_read("x", 5, 1)
        context.observe_read("y", 7, 2)
        context.observe_write("z", 11, 3)
        assert len(context) == 1
        assert context.dependencies()[0].key == "z"

    def test_dependency_partitions_are_distinct_and_sorted(self):
        context = ClientDependencyContext()
        context.observe_read("a", 1, 4)
        context.observe_read("b", 2, 2)
        context.observe_read("c", 3, 4)
        assert context.dependency_partitions() == (2, 4)

    def test_dependency_encodings(self):
        dep = Dependency("x", 5, 1, origin_dc=1)
        assert dep.as_pair() == ("x", 5)
        assert dep.as_triple() == ("x", 5, 1)

    def test_dependencies_sorted_deterministically(self):
        context = ClientDependencyContext()
        context.observe_read("b", 2, 0)
        context.observe_read("a", 1, 0)
        assert [dep.key for dep in context.dependencies()] == ["a", "b"]

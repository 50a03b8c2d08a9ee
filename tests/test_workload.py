"""Tests for workload parameters, zipfian sampling and operation generation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partitioning import HashPartitioner
from repro.errors import WorkloadError
from repro.workload.generator import Operation, WorkloadGenerator
from repro.workload.parameters import (
    DEFAULT_WORKLOAD,
    ROT_SIZES,
    SKEWS,
    VALUE_SIZES,
    WRITE_RATIOS,
    WorkloadParameters,
    table1_grid,
)
from repro.workload.zipfian import ZipfianSampler, expected_head_mass


class TestWorkloadParameters:
    def test_defaults_match_the_paper(self):
        assert DEFAULT_WORKLOAD.write_ratio == 0.05
        assert DEFAULT_WORKLOAD.rot_size == 4
        assert DEFAULT_WORKLOAD.value_size == 8
        assert DEFAULT_WORKLOAD.skew == 0.99

    def test_table1_grids(self):
        assert WRITE_RATIOS == (0.01, 0.05, 0.1)
        assert ROT_SIZES == (4, 8, 24)
        assert VALUE_SIZES == (8, 128, 2048)
        assert SKEWS == (0.99, 0.8, 0.0)

    def test_invalid_write_ratio(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(write_ratio=1.5)

    def test_invalid_rot_size(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(rot_size=0)

    def test_invalid_value_size(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(value_size=0)

    def test_invalid_skew(self):
        with pytest.raises(WorkloadError):
            WorkloadParameters(skew=-0.1)

    def test_put_probability_formula(self):
        """w = q / (q + (1 - q) * p) must hold for the derived q."""
        for w in WRITE_RATIOS:
            for p in ROT_SIZES:
                params = WorkloadParameters(write_ratio=w, rot_size=p)
                q = params.put_probability
                reconstructed = q / (q + (1 - q) * p)
                assert reconstructed == pytest.approx(w)

    def test_put_probability_zero_when_read_only(self):
        assert WorkloadParameters(write_ratio=0.0).put_probability == 0.0

    def test_with_changes_returns_new_instance(self):
        changed = DEFAULT_WORKLOAD.with_changes(skew=0.8)
        assert changed.skew == 0.8
        assert DEFAULT_WORKLOAD.skew == 0.99

    def test_describe_mentions_all_parameters(self):
        text = DEFAULT_WORKLOAD.describe()
        assert "w=0.05" in text and "p=4" in text and "z=0.99" in text

    def test_table1_grid_covers_single_axis_variations(self):
        grid = table1_grid()
        assert DEFAULT_WORKLOAD in grid
        assert len(grid) == 1 + 2 + 2 + 2 + 2


class TestZipfianSampler:
    def test_samples_stay_in_range(self):
        sampler = ZipfianSampler(100, 0.99, random.Random(1))
        assert all(0 <= sampler.sample() < 100 for _ in range(1000))

    def test_uniform_when_skew_zero(self):
        sampler = ZipfianSampler(10, 0.0, random.Random(1))
        counts = [0] * 10
        for _ in range(5000):
            counts[sampler.sample()] += 1
        assert min(counts) > 300  # roughly uniform

    def test_skew_concentrates_mass_on_head(self):
        rng = random.Random(2)
        sampler = ZipfianSampler(1000, 0.99, rng)
        head_hits = sum(1 for _ in range(5000) if sampler.sample() < 10)
        assert head_hits / 5000 > 0.3

    def test_probability_of_is_decreasing(self):
        sampler = ZipfianSampler(50, 0.99, random.Random(1))
        probabilities = [sampler.probability_of(i) for i in range(50)]
        assert probabilities == sorted(probabilities, reverse=True)
        assert sum(probabilities) == pytest.approx(1.0)

    def test_probability_uniform_case(self):
        sampler = ZipfianSampler(4, 0.0, random.Random(1))
        assert sampler.probability_of(3) == pytest.approx(0.25)

    def test_single_item(self):
        sampler = ZipfianSampler(1, 0.99, random.Random(1))
        assert sampler.sample() == 0

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfianSampler(0, 0.5, random.Random(1))
        with pytest.raises(WorkloadError):
            ZipfianSampler(10, -1.0, random.Random(1))
        with pytest.raises(WorkloadError):
            ZipfianSampler(10, 0.5, random.Random(1)).probability_of(99)

    def test_expected_head_mass_monotone_in_skew(self):
        assert expected_head_mass(1000, 0.99, 10) > expected_head_mass(1000, 0.0, 10)

    @given(st.integers(min_value=2, max_value=500),
           st.sampled_from([0.0, 0.8, 0.99]),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_samples_always_valid_indices(self, n, skew, seed):
        sampler = ZipfianSampler(n, skew, random.Random(seed))
        for _ in range(20):
            assert 0 <= sampler.sample() < n


class TestOperation:
    def test_put_requires_single_key(self):
        with pytest.raises(WorkloadError):
            Operation(kind="put", keys=("a", "b"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            Operation(kind="scan", keys=("a",))

    def test_empty_keys_rejected(self):
        with pytest.raises(WorkloadError):
            Operation(kind="rot", keys=())

    def test_kind_flags(self):
        assert Operation(kind="put", keys=("a",)).is_put
        assert Operation(kind="rot", keys=("a", "b")).is_rot


class TestWorkloadGenerator:
    def _generator(self, partitions=8, keys=100, seed=1, **params):
        parameters = DEFAULT_WORKLOAD.with_changes(**params) if params else DEFAULT_WORKLOAD
        return WorkloadGenerator(parameters, HashPartitioner(partitions), keys,
                                 random.Random(seed))

    def test_rot_spans_requested_number_of_partitions(self):
        generator = self._generator(rot_size=4)
        partitioner = HashPartitioner(8)
        for _ in range(100):
            operation = generator.next_operation()
            if operation.is_rot:
                partitions = {partitioner.partition_of(k) for k in operation.keys}
                assert len(partitions) == 4
                assert len(operation.keys) == 4

    def test_put_targets_one_key(self):
        generator = self._generator(write_ratio=1.0)
        operation = generator.next_operation()
        assert operation.is_put
        assert len(operation.keys) == 1

    def test_value_size_propagated(self):
        generator = self._generator(value_size=128)
        assert generator.next_operation().value_size == 128

    def test_write_fraction_close_to_target(self):
        generator = self._generator(write_ratio=0.1, rot_size=4, seed=7)
        puts = sum(1 for _ in range(4000) if generator.next_operation().is_put)
        expected = DEFAULT_WORKLOAD.with_changes(write_ratio=0.1).put_probability
        assert puts / 4000 == pytest.approx(expected, abs=0.03)

    def test_rot_size_cannot_exceed_partitions(self):
        with pytest.raises(WorkloadError):
            self._generator(partitions=2, rot_size=4)

    def test_deterministic_given_seed(self):
        a = [self._generator(seed=42).next_operation() for _ in range(50)]
        b = [self._generator(seed=42).next_operation() for _ in range(50)]
        assert a == b

    def test_put_fraction_diagnostic(self):
        generator = self._generator(write_ratio=0.0)
        for _ in range(10):
            generator.next_operation()
        assert generator.generated_puts == 0
        assert generator.generated_rots == 10

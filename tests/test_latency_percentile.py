"""Edge-case and property tests for the nearest-rank percentile.

The paper reports nearest-rank percentiles (a member of the population, not
an interpolation); these tests pin the estimator against
``statistics.quantiles`` on random populations and nail the degenerate
inputs (empty, single sample, all-equal).  ``LatencySummary`` must also
survive a dict round-trip, because ``RunResult`` serialisation flattens it
with ``asdict``.
"""

import math
import random
import statistics
import tracemalloc
from dataclasses import asdict

from repro.metrics.latency import LatencyRecorder, LatencySummary, percentile

FRACTIONS = (0.50, 0.95, 0.99)


class TestPercentileEdgeCases:
    def test_empty_population_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample_is_every_percentile(self):
        for fraction in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert percentile([42.0], fraction) == 42.0

    def test_all_equal_population(self):
        population = [7.0] * 100
        for fraction in FRACTIONS:
            assert percentile(population, fraction) == 7.0

    def test_fraction_bounds_clamp_to_extremes(self):
        population = [1.0, 2.0, 3.0]
        assert percentile(population, 0.0) == 1.0
        assert percentile(population, -1.0) == 1.0
        assert percentile(population, 1.0) == 3.0
        assert percentile(population, 2.0) == 3.0

    def test_two_samples(self):
        # The estimator computes round(f*n + 0.5) - 1 with Python's
        # round-half-to-even, so at f*n == 1 (an odd integer) the tie
        # resolves upward to the second order statistic.
        assert percentile([1.0, 2.0], 0.50) == 2.0
        assert percentile([1.0, 2.0], 0.49) == 1.0
        assert percentile([1.0, 2.0], 0.25) == 1.0
        assert percentile([1.0, 2.0], 0.75) == 2.0

    def test_exact_rank_on_a_round_population(self):
        # 100 distinct values 1..100.  Away from integer f*n boundaries the
        # estimator is the classic ceil(f*n)-th smallest value; at an odd
        # integer boundary the half-to-even tie rounds up one rank.
        population = [float(value) for value in range(1, 101)]
        assert percentile(population, 0.50) == 50.0   # f*n = 50, even tie
        assert percentile(population, 0.945) == 95.0  # ceil(94.5) = 95
        assert percentile(population, 0.95) == 96.0   # f*n = 95, odd tie
        assert percentile(population, 0.99) == 100.0  # f*n = 99, odd tie
        assert percentile(population, 0.985) == 99.0  # ceil(98.5) = 99


class TestPercentileProperties:
    def test_result_is_a_population_member(self):
        rng = random.Random(1)
        for _ in range(20):
            population = sorted(rng.uniform(0, 100)
                                for _ in range(rng.randint(1, 400)))
            for fraction in FRACTIONS:
                assert percentile(population, fraction) in population

    def test_nearest_rank_index_matches_the_definition(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 500)
            population = sorted(rng.uniform(0, 1000) for _ in range(n))
            for fraction in FRACTIONS:
                position = fraction * n
                if not float(position).is_integer():
                    # Away from boundaries this is classic nearest rank.
                    index = math.ceil(position) - 1
                else:
                    # Exact boundary: round-half-to-even on position + 0.5.
                    index = round(position + 0.5) - 1
                expected = population[min(n - 1, max(0, index))]
                assert percentile(population, fraction) == expected

    def test_brackets_statistics_quantiles(self):
        # Nearest rank never strays more than one order-statistic step from
        # the interpolated quantile: the inclusive-method quantile lies
        # between the order statistics around (n-1)*p, and the nearest rank
        # lands on one of them.
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(10, 500)
            population = sorted(rng.gauss(50, 10) for _ in range(n))
            for fraction in FRACTIONS:
                position = (n - 1) * fraction
                lower = population[math.floor(position)]
                upper = population[math.ceil(position)]
                interpolated = statistics.quantiles(
                    population, n=100, method="inclusive")[
                        round(fraction * 100) - 1]
                eps = 1e-9 * max(abs(lower), abs(upper), 1.0)
                assert lower - eps <= interpolated <= upper + eps
                assert lower <= percentile(population, fraction) <= upper

    def test_monotone_in_the_fraction(self):
        rng = random.Random(4)
        population = sorted(rng.expovariate(0.1) for _ in range(257))
        values = [percentile(population, f / 100) for f in range(101)]
        assert values == sorted(values)


class TestLatencySummaryRoundTrip:
    def test_summary_round_trips_through_a_dict(self):
        recorder = LatencyRecorder()
        recorder.extend([0.001, 0.002, 0.005, 0.010, 0.020])
        summary = recorder.summary()
        assert LatencySummary(**asdict(summary)) == summary

    def test_empty_summary_round_trips(self):
        summary = LatencySummary.empty()
        assert LatencySummary(**asdict(summary)) == summary
        assert summary.count == 0

    def test_summary_values_are_milliseconds(self):
        recorder = LatencyRecorder()
        recorder.record(0.004)  # 4 ms, in seconds
        summary = recorder.summary()
        assert summary.count == 1
        assert summary.mean_ms == 4.0
        assert summary.p50_ms == 4.0
        assert summary.p99_ms == 4.0
        assert summary.max_ms == 4.0

    def test_merge_and_extend_agree(self):
        a = LatencyRecorder()
        a.extend([0.001, 0.002])
        b = LatencyRecorder()
        b.record(0.003)
        b.merge(a)
        c = LatencyRecorder()
        c.extend([0.003, 0.001, 0.002])
        assert sorted(b.samples()) == sorted(c.samples())
        assert b.summary() == c.summary()
        assert b.samples_ms() == [3.0, 1.0, 2.0]

    def test_an_array_summary_equals_a_list_summary_bit_for_bit(self):
        rng = random.Random(11)
        samples = [rng.lognormvariate(-7.0, 2.0) for _ in range(20_000)]
        samples += [0.0, 1e-9, 3.0, 0.1 + 0.2]
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        listed = LatencyRecorder()
        listed._samples = list(samples)  # the storage before the array
        fields = asdict(recorder.summary())
        assert {name: float(value).hex() for name, value in fields.items()} \
            == {name: float(value).hex()
                for name, value in asdict(listed.summary()).items()}
        assert recorder.samples() == tuple(samples)

    def test_samples_are_stored_in_about_eight_bytes_each(self):
        # Everything the recorder allocates, boxed floats included (a list
        # of them costs about 32 B per sample).
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            recorder = LatencyRecorder()
            for index in range(100_000):
                recorder.record(index * 1e-6)
            stored = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert recorder.count == 100_000
        assert stored <= 8.5 * 100_000

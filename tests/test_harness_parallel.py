"""Tests for the process-pool experiment runner (``repro.harness.parallel``).

The contract under test: for identical seeds the parallel sweep returns rows
bit-identical to the serial sweep, results are deterministic regardless of
the worker count or scheduling, and a failure inside a worker surfaces in
the parent as a :class:`ParallelExecutionError` carrying the traceback.
"""

import os

import pytest

from repro.cluster.config import ClusterConfig
from repro.harness.parallel import (
    ParallelExecutionError,
    ParallelRunner,
    RunSpec,
    WORKERS_ENV_VAR,
    derive_seed,
    grid_specs,
    parallel_load_sweep,
    resolve_worker_count,
    run_grid,
    sweep_specs,
)
from repro.harness.runner import load_sweep
from repro.workload.parameters import DEFAULT_WORKLOAD


def tiny_config(**overrides):
    defaults = dict(clients_per_dc=2, duration_seconds=0.3, warmup_seconds=0.05,
                    keys_per_partition=32)
    defaults.update(overrides)
    return ClusterConfig.test_scale(**defaults)


class TestRunSpec:
    def test_spec_is_picklable(self):
        import pickle

        spec = RunSpec(protocol="contrarian", config=tiny_config(),
                       workload=DEFAULT_WORKLOAD, label="x")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_describe_mentions_the_point(self):
        spec = RunSpec(protocol="cure", config=tiny_config(clients_per_dc=7))
        text = spec.describe()
        assert "cure" in text
        assert "clients_per_dc=7" in text

    def test_sweep_specs_match_serial_points(self):
        config = tiny_config()
        specs = sweep_specs("contrarian", (2, 4, 6), config)
        assert [spec.config.clients_per_dc for spec in specs] == [2, 4, 6]
        # Everything except the client count is untouched (same seed!).
        for spec in specs:
            assert spec.config.seed == config.seed
            assert spec.config.num_partitions == config.num_partitions


class TestSeedDerivation:
    def test_deterministic_and_sensitive_to_components(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)

    def test_fits_in_63_bits_and_non_negative(self):
        for seed in range(20):
            derived = derive_seed(seed, "protocol", seed * 3)
            assert 0 <= derived < 2 ** 63

    def test_grid_specs_derive_distinct_seeds_per_cell(self):
        specs = grid_specs(["contrarian"], (2, 4), seeds=(0, 1),
                           config=tiny_config())
        seeds = {spec.config.seed for spec in specs}
        assert len(seeds) == len(specs) == 4

    def test_grid_specs_seed_none_keeps_config_seed(self):
        config = tiny_config()
        specs = grid_specs(["contrarian", "cure"], (2,), config=config)
        assert all(spec.config.seed == config.seed for spec in specs)


class TestWorkerResolution:
    def test_explicit_wins(self):
        assert resolve_worker_count(3) == 3
        assert resolve_worker_count(0) == 1

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_worker_count() == 5

    def test_environment_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with pytest.raises(Exception):
            resolve_worker_count()

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_worker_count() == max(1, os.cpu_count() or 1)


class TestParallelMatchesSerial:
    def test_bit_identical_to_serial_sweep(self):
        config = tiny_config()
        serial = load_sweep("contrarian", (2, 4), config)
        parallel = parallel_load_sweep("contrarian", (2, 4), config,
                                       max_workers=4)
        # RunResult is a (frozen) dataclass tree, so == is deep equality over
        # every field: throughput, every latency percentile, every counter.
        assert parallel == serial

    def test_deterministic_across_worker_counts(self):
        config = tiny_config()
        one = parallel_load_sweep("cure", (2, 3), config, max_workers=1)
        two = parallel_load_sweep("cure", (2, 3), config, max_workers=2)
        four = parallel_load_sweep("cure", (2, 3), config, max_workers=4)
        assert one == two == four

    def test_results_arrive_in_spec_order(self):
        results = parallel_load_sweep("contrarian", (4, 2, 3), tiny_config(),
                                      max_workers=4)
        assert [result.clients for result in results] == [4, 2, 3]

    def test_run_grid_groups_by_protocol(self):
        grouped = run_grid(["contrarian", "cure"], (2, 3),
                           config=tiny_config(), max_workers=2)
        assert sorted(grouped) == ["contrarian", "cure"]
        for results in grouped.values():
            assert [result.clients for result in results] == [2, 3]

    def test_empty_spec_list(self):
        assert ParallelRunner(max_workers=4).run([]) == []


class TestSpeedup:
    @pytest.mark.slow
    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="wall-clock speedup needs >= 4 cores")
    def test_parallel_grid_beats_serial_wall_clock(self):
        """A 3-point x 2-protocol grid with 4 workers must be >= 2x faster."""
        import time

        config = tiny_config(clients_per_dc=4)
        points = (2, 4, 8)
        protocols = ("contrarian", "cure")

        started = time.perf_counter()
        serial = {protocol: load_sweep(protocol, points, config)
                  for protocol in protocols}
        serial_seconds = time.perf_counter() - started

        started = time.perf_counter()
        parallel = run_grid(protocols, points, config=config, max_workers=4)
        parallel_seconds = time.perf_counter() - started

        assert parallel == serial
        speedup = serial_seconds / max(parallel_seconds, 1e-9)
        assert speedup >= 2.0, (
            f"expected >=2x speedup with 4 workers on a "
            f"{len(points)}x{len(protocols)} grid, measured {speedup:.2f}x "
            f"({serial_seconds:.2f}s serial vs {parallel_seconds:.2f}s parallel)")


class TestErrorPropagation:
    def test_worker_failure_raises_with_traceback(self):
        bad = RunSpec(protocol="no-such-protocol", config=tiny_config())
        with pytest.raises(ParallelExecutionError) as excinfo:
            ParallelRunner(max_workers=2).run([bad, bad])
        assert "no-such-protocol" in str(excinfo.value)
        assert "Traceback" in excinfo.value.worker_traceback
        assert excinfo.value.spec == bad

    def test_serial_fallback_uses_same_error_contract(self):
        bad = RunSpec(protocol="no-such-protocol", config=tiny_config())
        with pytest.raises(ParallelExecutionError) as excinfo:
            ParallelRunner(max_workers=1).run([bad])
        assert "Traceback" in excinfo.value.worker_traceback

    def test_good_specs_before_failure_do_not_mask_it(self):
        good = RunSpec(protocol="contrarian", config=tiny_config())
        bad = RunSpec(protocol="no-such-protocol", config=tiny_config())
        with pytest.raises(ParallelExecutionError):
            ParallelRunner(max_workers=2).run([good, bad])

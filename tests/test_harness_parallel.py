"""Tests for the one experiment executor (``repro.harness.parallel``).

The contract under test: ``run_specs`` returns, in spec order, exactly the
rows a plain loop over ``run_experiment`` returns, whatever the worker
count; ``run_series`` regroups a study without reordering it; and a run that
raises, or a worker process that dies, surfaces in the parent as a
:class:`ParallelExecutionError` naming the spec (or specs) in flight.
"""

import importlib
import multiprocessing
import os
import signal
import time

import pytest

from repro.cluster.config import ClusterConfig
from repro.harness import parallel
from repro.harness.figures import figure6_readers_check_overhead
from repro.harness.parallel import (
    ParallelExecutionError,
    RunSpec,
    WORKERS_ENV_VAR,
    resolve_worker_count,
    run_series,
    run_specs,
    sweep_specs,
)
from repro.harness.runner import load_sweep, run_experiment
from repro.workload.parameters import DEFAULT_WORKLOAD


def tiny_config(**overrides):
    defaults = dict(clients_per_dc=2, duration_seconds=0.3, warmup_seconds=0.05,
                    keys_per_partition=32)
    defaults.update(overrides)
    return ClusterConfig.test_scale(**defaults)


def reference_sweep(protocol, client_counts, config):
    """What a load sweep is: one run per client count, in order, in-process."""
    return [run_experiment(protocol, config.with_changes(clients_per_dc=clients)).result
            for clients in client_counts]


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

    def test_sweep_specs_vary_only_the_client_count(self):
        config = tiny_config()
        specs = sweep_specs("contrarian", (2, 4, 6), config)
        assert [spec.config.clients_per_dc for spec in specs] == [2, 4, 6]
        # Everything except the client count is untouched (same seed!).
        for spec in specs:
            assert spec.config.seed == config.seed
            assert spec.config.num_partitions == config.num_partitions


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


class TestExecutorMatchesLoop:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_load_sweep_equals_the_plain_loop(self, workers):
        config = tiny_config()
        # RunResult is a (frozen) dataclass tree, so == is deep equality over
        # every field: throughput, every latency percentile, every counter.
        assert load_sweep("contrarian", (2, 4, 3), config,
                          max_workers=workers) == \
            reference_sweep("contrarian", (2, 4, 3), config)

    def test_results_arrive_in_spec_order(self):
        results = run_specs(sweep_specs("contrarian", (4, 2, 3), tiny_config()),
                            max_workers=4)
        assert [result.clients for result in results] == [4, 2, 3]

    def test_run_series_keeps_spec_order_within_each_series(self):
        config = tiny_config()
        grouped = run_series({
            "contrarian": sweep_specs("contrarian", (3, 2), config),
            "cure": sweep_specs("cure", (2, 4, 3), config),
        }, max_workers=2)
        assert list(grouped) == ["contrarian", "cure"]
        assert [result.protocol for result in grouped["cure"]] == ["cure"] * 3
        assert [result.clients for result in grouped["contrarian"]] == [3, 2]
        assert [result.clients for result in grouped["cure"]] == [2, 4, 3]
        assert grouped["cure"] == reference_sweep("cure", (2, 4, 3), config)

    def test_figure_is_the_same_for_every_worker_count(self):
        def figure(workers):
            return figure6_readers_check_overhead(
                client_counts=(2, 4), config=tiny_config(), max_workers=workers)

        assert figure(1).series == figure(2).series

    def test_empty_studies(self):
        assert run_specs([], max_workers=4) == []
        assert run_series({}, max_workers=4) == {}
        assert run_series({"none": []}, max_workers=4) == {"none": []}


class TestSpeedup:
    @pytest.mark.slow
    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="wall-clock speedup needs >= 4 cores")
    def test_pool_beats_the_loop_wall_clock(self):
        """A 3-point x 2-protocol grid with 4 workers must be >= 2x faster."""
        config = tiny_config(clients_per_dc=4)
        points = (2, 4, 8)
        protocols = ("contrarian", "cure")

        started = time.perf_counter()
        serial = {protocol: reference_sweep(protocol, points, config)
                  for protocol in protocols}
        serial_seconds = time.perf_counter() - started

        started = time.perf_counter()
        pooled = run_series({protocol: sweep_specs(protocol, points, config)
                             for protocol in protocols}, max_workers=4)
        pooled_seconds = time.perf_counter() - started

        assert pooled == serial
        speedup = serial_seconds / max(pooled_seconds, 1e-9)
        assert speedup >= 2.0, (
            f"expected >=2x speedup with 4 workers on a "
            f"{len(points)}x{len(protocols)} grid, measured {speedup:.2f}x "
            f"({serial_seconds:.2f}s serial vs {pooled_seconds:.2f}s pooled)")


_REAL_WORKER = parallel._run_guarded


def _die_on_doomed_spec(spec):
    """Stand-in worker function: the child running a doomed spec dies."""
    if spec.label == "doomed":
        os._exit(3)
    return _REAL_WORKER(spec)


class TestErrorPropagation:
    def test_worker_failure_raises_with_traceback(self):
        bad = RunSpec(protocol="no-such-protocol", config=tiny_config())
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_specs([bad, bad], max_workers=2)
        assert "no-such-protocol" in str(excinfo.value)
        assert "Traceback" in excinfo.value.worker_traceback
        assert excinfo.value.spec == bad

    def test_in_process_path_uses_same_error_contract(self):
        bad = RunSpec(protocol="no-such-protocol", config=tiny_config())
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_specs([bad], max_workers=1)
        assert "Traceback" in excinfo.value.worker_traceback
        assert excinfo.value.specs == (bad,)

    def test_good_specs_before_failure_do_not_mask_it(self):
        good = RunSpec(protocol="contrarian", config=tiny_config())
        bad = RunSpec(protocol="no-such-protocol", config=tiny_config())
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_specs([good, bad], max_workers=2)
        assert excinfo.value.specs == (bad,)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched worker function reaches the "
                               "children only through fork")
    def test_dead_worker_fails_the_run_within_seconds(self, monkeypatch):
        # Patched before the pool forks, so the children inherit it.
        monkeypatch.setattr(parallel, "_run_guarded", _die_on_doomed_spec)
        good = RunSpec(protocol="contrarian", config=tiny_config())
        doomed = RunSpec(protocol="contrarian", config=tiny_config(),
                         label="doomed")

        def hung(signum, frame):
            raise TimeoutError("run_specs hung on a dead worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        started = time.monotonic()
        try:
            with pytest.raises(ParallelExecutionError) as excinfo:
                run_specs([good, doomed, good, good], max_workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 30.0
        assert doomed in excinfo.value.specs
        # Only what was running is named: one spec per worker is in flight.
        assert len(excinfo.value.specs) <= 2
        assert "worker process died" in str(excinfo.value)
        assert not multiprocessing.active_children()


class TestPublicSurface:
    EXECUTOR = ("RunSpec", "sweep_specs", "run_specs", "run_series",
                "load_sweep", "run_experiment")
    GONE = ("parallel_load_sweep", "ParallelRunner", "grid_specs", "run_grid",
            "derive_seed", "execute_spec", "single_point", "figure_faults")

    @pytest.mark.parametrize("module_name", ["repro", "repro.api", "repro.harness"])
    def test_one_executor_is_exported_and_the_old_roads_are_gone(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            getattr(module, name)  # every export resolves, lazy ones included
        assert set(self.EXECUTOR) <= set(module.__all__)
        for name in self.GONE:
            assert not hasattr(module, name), name

"""Tests of the real-time (asyncio) backend and cross-backend equivalence.

The acceptance bar for the runtime package: ``CausalStore(backend=
"inproc")`` completes a mixed put/ROT workload for all three protocols
with zero causal violations, and the same scripted workload produces
value-equivalent histories on the simulated and real-time backends.  One
``run_experiment`` serves a workload on every backend of ``BACKENDS``.
"""

import pytest

from repro.api import CausalStore
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.faults import Scenario
from repro.harness.runner import BACKENDS, run_experiment
from repro.metrics.collectors import RunResult
from repro.workload.parameters import WorkloadParameters

PROTOCOLS = ("contrarian", "cure", "cc-lo")

#: A mixed put/ROT script (key, or tuple of keys for a ROT).  Repeated
#: overwrites make version choice observable; the trailing ROT spans keys.
SCRIPT = (
    ("put", ("alpha",)),
    ("put", ("beta",)),
    ("rot", ("alpha", "beta")),
    ("put", ("alpha",)),
    ("rot", ("alpha",)),
    ("put", ("gamma",)),
    ("rot", ("alpha", "beta", "gamma")),
    ("put", ("beta",)),
    ("rot", ("beta", "gamma")),
)


def run_script(protocol: str, backend: str):
    """Run SCRIPT and canonicalise the history.

    Timestamps differ between backends (simulated HLC versus wall-clock
    HLC), so each read value is mapped to the *script index of the PUT that
    produced it* (or ``"init"`` for never-written keys).  Two backends are
    value-equivalent when those canonical histories match.
    """
    canonical = []
    produced: dict[int, tuple[int, str]] = {}  # timestamp -> (op index, key)
    with CausalStore(protocol=protocol, backend=backend) as store:
        for index, (kind, keys) in enumerate(SCRIPT):
            if kind == "put":
                result = store.put(keys[0])
                produced[result.values[keys[0]]] = (index, keys[0])
                canonical.append(("put", keys[0]))
            else:
                result = store.rot(keys)
                reads = {}
                for key in keys:
                    value = result.values[key]
                    if value in produced and produced[value][1] == key:
                        reads[key] = produced[value][0]
                    else:
                        reads[key] = "init" if not value else "unknown"
                canonical.append(("rot", tuple(sorted(reads.items()))))
        report = store.check()
    return canonical, report


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_script_histories_are_value_equivalent(self, protocol):
        sim_history, sim_report = run_script(protocol, "sim")
        rt_history, rt_report = run_script(protocol, "inproc")
        assert sim_history == rt_history
        assert sim_report.ok
        assert rt_report.ok
        # A single session must always read its own writes, so no read may
        # have resolved to an unknown version on either backend.
        assert "unknown" not in repr(sim_history)
        assert "unknown" not in repr(rt_history)


#: Two DCs, a few closed loops, a short wall-clock run.
TINY_2DC = ClusterConfig.test_scale(num_partitions=2, num_dcs=2,
                                    clients_per_dc=2, duration_seconds=0.4,
                                    warmup_seconds=0.05)


class TestOneRunPath:
    @pytest.mark.parametrize("backend", [
        backend if backend != "tcp"
        else pytest.param(backend, marks=pytest.mark.slow)
        for backend in BACKENDS])
    def test_every_backend_writes_one_clean_row(self, backend):
        outcome = run_experiment("contrarian", TINY_2DC,
                                 WorkloadParameters(rot_size=2),
                                 backend=backend, check_consistency=True)
        result = outcome.result
        assert result.rots_completed > 0
        assert result.puts_completed > 0
        assert RunResult.from_json_dict(result.as_json_dict()) == result
        assert outcome.checker_report.ok
        assert outcome.checker_report.rots > 0
        assert result.overhead.messages_sent > 0
        if backend != "sim":
            assert backend in result.label and outcome.faults is None

    def test_unknown_backend_names_all_three(self):
        for build in (lambda: run_experiment("contrarian", backend="quantum"),
                      lambda: CausalStore(backend="quantum")):
            with pytest.raises(ConfigurationError) as error:
                build()
            assert all(name in str(error.value) for name in BACKENDS)

    def test_a_simulated_run_loads_no_runtime(self):
        """The wall-clock path is imported lazily: a simulated run (and so
        every pool worker) loads neither repro.runtime nor asyncio.  A fresh
        interpreter, because this process has long since imported both."""
        import os
        import subprocess
        import sys

        import repro
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        script = ("import sys\n"
                  "from repro.cluster.config import ClusterConfig\n"
                  "from repro.harness import run_experiment\n"
                  "run_experiment('cure', ClusterConfig.test_scale("
                  "duration_seconds=0.1, warmup_seconds=0.05))\n"
                  "loaded = [name for name in sys.modules if name == 'asyncio'"
                  " or name.startswith('repro.runtime')]\n"
                  "assert not loaded, loaded")
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={**os.environ, "PYTHONPATH": source_root},
                       timeout=60)

    def test_scenario_requires_the_simulator(self):
        scenario = Scenario.at(0.1).partition_dc(1).at(0.2).heal()
        with pytest.raises(ConfigurationError, match="sim"):
            run_experiment("contrarian", TINY_2DC, backend="inproc",
                           scenario=scenario)


class TestRealtimeWorkloads:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_concurrent_workload_has_zero_causal_violations(self, protocol):
        """Acceptance criterion: a mixed put/ROT workload under genuine
        asyncio concurrency, checker attached, zero violations."""
        config = ClusterConfig.test_scale(clients_per_dc=3, num_dcs=2,
                                          duration_seconds=0.4,
                                          warmup_seconds=0.05)
        outcome = run_experiment(protocol, config, backend="inproc",
                                 check_consistency=True)
        result = outcome.result
        assert result.rots_completed > 0
        assert result.puts_completed > 0
        assert outcome.checker_report.ok
        assert result.rot_latency.mean_ms > 0.0

    def test_cclo_readers_check_runs_on_realtime_backend(self):
        config = ClusterConfig.test_scale(clients_per_dc=2,
                                          duration_seconds=0.4,
                                          warmup_seconds=0.05)
        outcome = run_experiment("cc-lo", config, backend="inproc",
                                 check_consistency=True)
        assert outcome.result.overhead.readers_checks > 0


class TestRealtimeLifecycle:
    def test_close_leaves_no_pending_tasks(self, caplog):
        """Regression: ``close()`` must cancel *and await* every node task.

        Relying on garbage collection to reap still-pending tasks makes
        asyncio log ``Task was destroyed but it is pending!`` through the
        ``asyncio`` logger when the task objects are finalised.
        """
        import gc
        import logging

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            store = CausalStore(protocol="contrarian", backend="inproc",
                                num_dcs=2)
            store.put("k")
            store.rot(["k"])
            store.close()
            del store
            gc.collect()
        destroyed = [record for record in caplog.records
                     if "Task was destroyed" in record.getMessage()]
        assert destroyed == []

    def test_stopped_cluster_reports_no_failure(self):
        """The bounded-timeout stop path must not invent failures."""
        store = CausalStore(protocol="cure", backend="inproc")
        store.put("k")
        cluster = store.cluster
        store.close()
        assert cluster.first_failure() is None

    def test_close_is_idempotent_and_blocks_further_use(self):
        store = CausalStore(protocol="contrarian", backend="inproc")
        store.put("k")
        store.close()
        store.close()  # idempotent
        with pytest.raises(ConfigurationError):
            store.put("k")

    def test_sim_backend_close_is_idempotent(self):
        store = CausalStore(protocol="contrarian")
        store.put("k")
        store.close()
        store.close()
        with pytest.raises(ConfigurationError):
            store.get("k")

    def test_context_manager_closes(self):
        with CausalStore(protocol="cc-lo", backend="inproc") as store:
            store.put("k")
        with pytest.raises(ConfigurationError):
            store.put("k")

    def test_multi_dc_replication_becomes_visible(self):
        with CausalStore(protocol="contrarian", backend="inproc",
                         num_dcs=2) as store:
            written = store.put("shared", dc=0).values["shared"]
            seen = None
            for _ in range(40):  # bounded wait for replication+stabilization
                store.advance(0.05)
                seen = store.get("shared", dc=1)
                if seen == written:
                    break
            assert seen == written


class TestRegistryExtensibility:
    def test_register_protocol_rejects_duplicates(self):
        from repro.core.registry import register_protocol
        with pytest.raises(ConfigurationError, match="already registered"):
            register_protocol("contrarian", kernel=object,
                              client_kernel=object)

    def test_kernels_are_all_a_registration_needs(self):
        """Two kernel classes — no driver — run on both backends."""
        from repro.core.registry import (
            register_protocol,
            resolve_spec,
            unregister_protocol,
        )
        from repro.core.vector.kernel import (
            ContrarianClientKernel,
            ContrarianKernel,
        )
        with pytest.raises(TypeError):
            register_protocol("toy")  # a protocol without kernels is none
        register_protocol("toy", kernel=ContrarianKernel,
                          client_kernel=ContrarianClientKernel)
        try:
            assert resolve_spec("toy").kernel is ContrarianKernel
            for backend in ("sim", "inproc"):
                with CausalStore(protocol="toy", backend=backend) as store:
                    written = store.put("k").values["k"]
                    assert store.get("k") == written
                    assert store.check().ok
        finally:
            unregister_protocol("toy")
        with pytest.raises(ConfigurationError, match="known"):
            resolve_spec("toy")

"""Tests of the real-time (asyncio) backend and cross-backend equivalence.

The acceptance bar for the runtime package: ``CausalStore(backend=
"realtime")`` completes a mixed put/ROT workload for all three protocols
with zero causal violations, and the same scripted workload produces
value-equivalent histories on the simulated and real-time backends.
"""

import pytest

from repro.api import CausalStore
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.runtime import run_realtime_experiment

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
        rt_history, rt_report = run_script(protocol, "realtime")
        assert sim_history == rt_history
        assert sim_report.ok
        assert rt_report.ok
        # A single session must always read its own writes, so no read may
        # have resolved to an unknown version on either backend.
        assert "unknown" not in repr(sim_history)
        assert "unknown" not in repr(rt_history)


class TestRealtimeWorkloads:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_concurrent_workload_has_zero_causal_violations(self, protocol):
        """Acceptance criterion: a mixed put/ROT workload under genuine
        asyncio concurrency, checker attached, zero violations."""
        config = ClusterConfig.test_scale(clients_per_dc=3, num_dcs=2,
                                          warmup_seconds=0.05)
        outcome = run_realtime_experiment(protocol, config,
                                          duration_seconds=0.4,
                                          check_consistency=True)
        result = outcome.result
        assert result.rots_completed > 0
        assert result.puts_completed > 0
        assert outcome.checker_report.ok
        assert result.rot_latency.mean_ms > 0.0

    def test_realtime_result_row_matches_run_result_schema(self):
        outcome = run_realtime_experiment(
            "contrarian", ClusterConfig.test_scale(warmup_seconds=0.05),
            duration_seconds=0.3)
        payload = outcome.result.as_json_dict()
        from repro.metrics.collectors import RunResult
        round_tripped = RunResult.from_json_dict(payload)
        assert round_tripped.protocol == "contrarian"
        assert round_tripped.overhead.messages_sent > 0

    def test_cclo_readers_check_runs_on_realtime_backend(self):
        config = ClusterConfig.test_scale(clients_per_dc=2, warmup_seconds=0.05)
        outcome = run_realtime_experiment("cc-lo", config,
                                          duration_seconds=0.4,
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
            store = CausalStore(protocol="contrarian", backend="realtime",
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
        store = CausalStore(protocol="cure", backend="realtime")
        store.put("k")
        cluster = store.cluster
        store.close()
        assert cluster.first_failure() is None

    def test_close_is_idempotent_and_blocks_further_use(self):
        store = CausalStore(protocol="contrarian", backend="realtime")
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
        with CausalStore(protocol="cc-lo", backend="realtime") as store:
            store.put("k")
        with pytest.raises(ConfigurationError):
            store.put("k")

    def test_unknown_backend_rejected_with_known_names(self):
        with pytest.raises(ConfigurationError, match="realtime"):
            CausalStore(protocol="contrarian", backend="quantum")

    def test_multi_dc_replication_becomes_visible(self):
        with CausalStore(protocol="contrarian", backend="realtime",
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
            for backend in ("sim", "realtime"):
                with CausalStore(protocol="toy", backend=backend) as store:
                    written = store.put("k").values["k"]
                    assert store.get("k") == written
                    assert store.check().ok
        finally:
            unregister_protocol("toy")
        with pytest.raises(ConfigurationError, match="known"):
            resolve_spec("toy")

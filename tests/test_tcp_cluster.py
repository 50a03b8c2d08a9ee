"""Multi-process TCP cluster tests (the issue's acceptance criteria).

All three protocols must complete a run with ``backend="tcp"``
across >= 2 worker OS processes with zero causal-checker violations; the
interactive facade must drive the same worker mesh.  These spawn real
processes, so they carry the ``slow`` marker (tier-1 still runs them).
"""

import pytest

from repro.api import CausalStore
from repro.cluster.config import ClusterConfig
from repro.core.registry import resolve_spec, transport_protocols
from repro.errors import ConfigurationError
from repro.harness.runner import run_experiment
from repro.runtime.process import default_placement
from repro.workload.parameters import WorkloadParameters

PROTOCOLS = ("contrarian", "cure", "cc-lo")

#: Small but genuinely multi-process: 2 DCs x 2 partitions -> 4 server
#: processes plus one client worker per DC.
CONFIG = ClusterConfig.test_scale(num_partitions=2, num_dcs=2,
                                  clients_per_dc=2, duration_seconds=0.5,
                                  warmup_seconds=0.05)
WORKLOAD = WorkloadParameters(rot_size=2)


@pytest.mark.slow
class TestTcpWorkloadRuns:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_protocol_completes_over_tcp_with_zero_violations(self, protocol):
        outcome = run_experiment(protocol, CONFIG, WORKLOAD, backend="tcp",
                                 check_consistency=True)
        result = outcome.result
        assert outcome.cluster.worker_count >= 2
        assert result.rots_completed > 0
        assert result.puts_completed > 0
        assert outcome.checker_report.ok
        assert outcome.checker_report.rots > 0
        assert result.rot_latency.mean_ms > 0.0
        # Overheads come from the server workers, shipped back at shutdown.
        assert result.overhead.messages_sent > 0
        assert result.overhead.bytes_sent > 0

    def test_cclo_readers_check_counters_cross_the_wire(self):
        outcome = run_experiment("cc-lo", CONFIG, WORKLOAD, backend="tcp",
                                 check_consistency=True)
        assert outcome.result.overhead.readers_checks > 0


@pytest.mark.slow
class TestTcpInteractiveFacade:
    def test_put_rot_check_and_cross_dc_replication(self):
        with CausalStore(protocol="contrarian", backend="tcp",
                         num_partitions=2, num_dcs=2) as store:
            written = store.put("shared", dc=0).values["shared"]
            assert store.rot(["shared"], dc=0).values["shared"] == written
            seen = None
            for _ in range(40):  # bounded wait for replication+stabilization
                store.advance(0.05)
                seen = store.get("shared", dc=1)
                if seen == written:
                    break
            assert seen == written
            assert store.check().ok
        with pytest.raises(ConfigurationError):
            store.put("shared")


class TestTransportSelection:
    def test_placement_is_one_process_per_partition_server(self):
        roles = default_placement(CONFIG, workload_clients=True)
        server_roles = [role for role in roles if role.server_ids]
        client_roles = [role for role in roles if role.client_ids]
        assert len(server_roles) == CONFIG.num_dcs * CONFIG.num_partitions
        assert all(len(role.server_ids) == 1 for role in server_roles)
        assert len(client_roles) == CONFIG.num_dcs
        covered = {client for role in client_roles
                   for client in role.client_ids}
        assert covered == {(dc, index) for dc in range(CONFIG.num_dcs)
                           for index in range(CONFIG.clients_per_dc)}

    def test_builtins_declare_tcp_support(self):
        assert set(transport_protocols("tcp")) >= set(PROTOCOLS)
        for protocol in PROTOCOLS:
            assert resolve_spec(protocol).transports == ("inproc", "tcp")

    def test_inproc_only_protocol_is_refused_by_tcp(self):
        from repro.core.registry import register_protocol, unregister_protocol
        from repro.core.vector.kernel import (
            ContrarianClientKernel,
            ContrarianKernel,
        )
        register_protocol("inproc-only", kernel=ContrarianKernel,
                          client_kernel=ContrarianClientKernel,
                          transports=("inproc",))
        try:
            assert "inproc-only" not in transport_protocols("tcp")
            with pytest.raises(ConfigurationError, match="tcp"):
                run_experiment("inproc-only", CONFIG, backend="tcp")
        finally:
            unregister_protocol("inproc-only")

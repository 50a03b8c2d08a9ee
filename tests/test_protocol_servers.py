"""Unit-level tests of protocol server behaviour, driven through the facade
and through small targeted simulations.

These tests look inside the servers (clocks, GSS, reader records, counters) to
verify the mechanisms the paper describes: nonblocking reads under HLC,
blocking reads under physical clocks, the readers check and its old-reader
records, and the stabilization protocol.
"""

import pytest

from repro.api import CausalStore
from repro.cluster.config import ClusterConfig
from repro.core.common.messages import RotValueReply, VectorPutRequest
from repro.errors import ProtocolError
from repro.harness.builder import build_cluster
from repro.harness.runner import run_experiment
from repro.workload.parameters import DEFAULT_WORKLOAD


def tiny_config(**overrides):
    defaults = dict(clients_per_dc=4, duration_seconds=0.4, warmup_seconds=0.1)
    defaults.update(overrides)
    return ClusterConfig.test_scale(**defaults)


class TestVectorServerMechanics:
    def test_contrarian_reads_never_block(self):
        outcome = run_experiment("contrarian", tiny_config())
        overhead = outcome.result.overhead
        assert overhead.blocked_reads == 0
        assert outcome.result.rots_completed > 0

    def test_cure_reads_block_on_clock_skew(self):
        outcome = run_experiment("cure", tiny_config())
        overhead = outcome.result.overhead
        assert overhead.blocked_reads > 0
        assert overhead.total_block_time > 0.0

    def test_contrarian_with_logical_clocks_still_nonblocking(self):
        outcome = run_experiment("contrarian", tiny_config(clock_mode="logical"))
        assert outcome.result.overhead.blocked_reads == 0

    def test_put_timestamps_increase_on_a_partition(self):
        store = CausalStore(protocol="contrarian")
        timestamps = [store.put("k").values["k"] for _ in range(5)]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == 5

    def test_put_installs_version_with_dependency_vector(self):
        store = CausalStore(protocol="contrarian")
        store.put("k")
        server = store.cluster.topology.server_for_key(0, "k")
        version = server.store.latest_visible("k")
        assert version.dependency_vector is not None
        assert version.dependency_vector[0] == version.timestamp

    def test_stabilization_messages_are_exchanged(self):
        outcome = run_experiment("contrarian", tiny_config())
        assert outcome.result.overhead.stabilization_messages > 0

    def test_two_dc_put_is_replicated(self):
        outcome = run_experiment("contrarian", tiny_config(num_dcs=2,
                                                           clients_per_dc=3))
        assert outcome.result.overhead.replication_messages > 0

    def test_gss_advances_during_a_run(self):
        outcome = run_experiment("contrarian", tiny_config(num_dcs=2,
                                                           clients_per_dc=3))
        for server in outcome.cluster.topology.all_servers():
            assert all(entry > 0 for entry in server.kernel.gss)

    def test_unknown_message_rejected(self):
        cluster = build_cluster("contrarian", tiny_config(), DEFAULT_WORKLOAD)
        server = cluster.topology.server(0, 0)
        with pytest.raises(ProtocolError):
            server.handle_message(server, object())

    def test_client_rejects_unknown_message(self):
        cluster = build_cluster("contrarian", tiny_config(), DEFAULT_WORKLOAD)
        client = cluster.topology.clients[0]
        with pytest.raises(ProtocolError):
            client.handle_message(client, object())

    def test_client_rejects_reply_for_unknown_rot(self):
        cluster = build_cluster("contrarian", tiny_config(), DEFAULT_WORKLOAD)
        client = cluster.topology.clients[0]
        with pytest.raises(ProtocolError):
            client.handle_message(client, RotValueReply(rot_id="ghost", results=(),
                                                        snapshot=(0,), gss=(0,)))

    def test_message_cost_covers_all_vector_messages(self):
        cluster = build_cluster("contrarian", tiny_config(), DEFAULT_WORKLOAD)
        server = cluster.topology.server(0, 0)
        request = VectorPutRequest(key="0:0", value_size=64, client_vector=(0,),
                                   client_id="c", sequence=1)
        assert server.service_time(request) > server.cost_model.message_cost()


class TestCcloServerMechanics:
    def test_put_triggers_readers_check_after_reads(self):
        outcome = run_experiment("cc-lo", tiny_config())
        overhead = outcome.result.overhead
        assert overhead.readers_checks > 0
        assert overhead.readers_check_messages > 0
        assert overhead.rot_ids_distinct > 0

    def test_rots_are_single_round_and_nonblocking(self):
        outcome = run_experiment("cc-lo", tiny_config())
        assert outcome.result.overhead.blocked_reads == 0

    @pytest.mark.slow
    def test_put_latency_exceeds_vector_protocol_put_latency(self):
        cclo = run_experiment("cc-lo", tiny_config()).result
        contrarian = run_experiment("contrarian", tiny_config()).result
        assert cclo.put_mean_ms > contrarian.put_mean_ms

    def test_version_becomes_visible_after_check(self):
        store = CausalStore(protocol="cc-lo")
        store.rot(["0:0", "1:0"])
        written = store.put("0:0").values["0:0"]
        server = store.cluster.topology.server_for_key(0, "0:0")
        version = server.store.latest_visible("0:0")
        assert version.timestamp == written
        assert version.visible

    def test_old_reader_records_populated_on_overwrite(self):
        store = CausalStore(protocol="cc-lo")
        store.rot(["0:0", "1:0"])       # the facade client reads 0:0
        store.put("0:0")                # overwriting demotes that reader
        server = store.cluster.topology.server_for_key(0, "0:0")
        assert server.kernel.readers.old_reader_count("0:0") >= 1

    @pytest.mark.slow
    def test_replicated_updates_carry_dependencies(self):
        outcome = run_experiment("cc-lo", tiny_config(num_dcs=2, clients_per_dc=3))
        overhead = outcome.result.overhead
        assert overhead.replication_messages > 0
        assert overhead.dependency_entries_sent > 0

    @pytest.mark.slow
    def test_remote_readers_check_runs_in_both_dcs(self):
        single = run_experiment("cc-lo", tiny_config()).result
        double = run_experiment("cc-lo", tiny_config(num_dcs=2, clients_per_dc=4)).result
        # With two DCs every PUT is checked at the origin and at the replica.
        assert double.overhead.readers_checks > single.overhead.readers_checks

    def test_unknown_message_rejected(self):
        cluster = build_cluster("cc-lo", tiny_config(), DEFAULT_WORKLOAD)
        server = cluster.topology.server(0, 0)
        with pytest.raises(ProtocolError):
            server.handle_message(server, object())

    @pytest.mark.slow
    def test_gc_window_configuration_is_respected(self):
        fast_gc = run_experiment(
            "cc-lo", tiny_config(cclo_gc_window_ms=20.0)).result
        slow_gc = run_experiment(
            "cc-lo", tiny_config(cclo_gc_window_ms=5000.0)).result
        assert fast_gc.overhead.average_distinct_ids_per_check() <= \
            slow_gc.overhead.average_distinct_ids_per_check()

"""Tests for the cluster configuration, partitioning and topology container."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import partitioning
from repro.cluster.config import ClusterConfig
from repro.cluster.partitioning import HashPartitioner
from repro.cluster.topology import ClusterTopology
from repro.core.common.kernel import ClientAddr, ServerAddr
from repro.errors import ConfigurationError
from repro.harness.builder import build_cluster
from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workload.parameters import DEFAULT_WORKLOAD


class TestHashPartitioner:
    def test_partition_in_range(self):
        partitioner = HashPartitioner(8)
        for key in ("alpha", "beta", "gamma", "delta"):
            assert 0 <= partitioner.partition_of(key) < 8

    def test_assignment_is_deterministic(self):
        assert HashPartitioner(16).partition_of("user:42") == \
            HashPartitioner(16).partition_of("user:42")

    def test_structured_keys_land_on_their_partition(self):
        partitioner = HashPartitioner(8)
        for partition in range(8):
            key = HashPartitioner.structured_key(partition, 123)
            assert partitioner.partition_of(key) == partition

    def test_structured_keys_wrap_modulo_partitions(self):
        partitioner = HashPartitioner(4)
        assert partitioner.partition_of(HashPartitioner.structured_key(6, 0)) == 2

    def test_group_by_partition_preserves_order(self):
        partitioner = HashPartitioner(4)
        keys = [HashPartitioner.structured_key(1, i) for i in range(3)]
        groups = partitioner.group_by_partition(keys + ["0:0"])
        assert groups[1] == keys
        assert groups[0] == ["0:0"]

    def test_keys_for_partition(self):
        partitioner = HashPartitioner(4)
        keys = partitioner.keys_for_partition(2, 5)
        assert len(keys) == 5
        assert all(partitioner.partition_of(key) == 2 for key in keys)

    def test_keys_for_partition_validates_index(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(4).keys_for_partition(9, 1)

    def test_at_least_one_partition(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)

    @given(st.integers(min_value=1, max_value=64), st.text(min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_any_key_maps_in_range(self, partitions, key):
        assert 0 <= HashPartitioner(partitions).partition_of(key) < partitions

    def test_only_ascii_digits_make_a_structured_key(self):
        """``str.isdigit`` also accepts superscripts (which ``int`` rejects:
        this used to raise) and digits of other scripts (which ``int``
        parses: "\u0661:2" used to land on partition 1); such user keys are
        hashed like any other."""
        partitioner = HashPartitioner(4)
        for key in ("\u00b2:5", "\u0661:2", "\u2460:1", "1\u00b2:0", ":7", "-1:3"):
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
            assert partitioner.partition_of(key) \
                == int.from_bytes(digest, "big") % 4
        assert partitioner.partition_of("007:x") == 3

    #: User keys, with the shapes around the ``"<partition>:<index>"``
    #: contract over-represented: digit-like heads of every Unicode kind.
    user_keys = st.one_of(
        st.text(max_size=20),
        st.builds("{}:{}".format,
                  st.text(st.characters(whitelist_categories=("Nd", "No", "Nl")),
                          max_size=4),
                  st.text(max_size=6)))

    @given(st.integers(min_value=1, max_value=64),
           st.lists(user_keys, min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_no_user_key_raises_and_the_memo_changes_no_answer(
            self, partitions, keys):
        memoised = HashPartitioner(partitions)
        first = [memoised.partition_of(key) for key in keys]
        assert all(0 <= partition < partitions for partition in first)
        # Asked again (now from the memo), asked of a partitioner that has
        # seen nothing else, and asked through group_by_partition.
        assert [memoised.partition_of(key) for key in keys] == first
        assert [HashPartitioner(partitions).partition_of(key)
                for key in keys] == first
        groups = memoised.group_by_partition(iter(keys))
        assert {key: partition for partition, group in groups.items()
                for key in group} == dict(zip(keys, first))

    def test_the_memo_is_bounded_and_stops_admitting(self, monkeypatch):
        monkeypatch.setattr(partitioning, "MAX_INTERNED_KEYS", 3)
        partitioner = HashPartitioner(4)
        keys = [HashPartitioner.structured_key(index % 4, index)
                for index in range(10)]
        assert [partitioner.partition_of(key) for key in keys] \
            == [index % 4 for index in range(10)]
        assert list(partitioner._memo) == keys[:3]


class TestClusterConfig:
    def test_defaults_are_valid(self):
        config = ClusterConfig()
        assert config.total_clients == config.clients_per_dc
        assert config.measurement_seconds > 0

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_partitions=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_dcs=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(clients_per_dc=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(duration_seconds=0.1, warmup_seconds=0.2)
        with pytest.raises(ConfigurationError):
            ClusterConfig(rot_rounds=3.0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(clock_mode="atomic")
        with pytest.raises(ConfigurationError):
            ClusterConfig(stabilization_interval_ms=0)

    def test_with_changes(self):
        config = ClusterConfig().with_changes(num_dcs=2, clients_per_dc=4)
        assert config.num_dcs == 2
        assert config.total_clients == 8

    def test_factories(self):
        assert ClusterConfig.test_scale().num_partitions == 4
        assert ClusterConfig.paper_scale().num_partitions == 32
        bench = ClusterConfig.bench_scale()
        assert bench.cost_model.base_message_us > ClusterConfig().cost_model.base_message_us

    def test_factory_overrides(self):
        config = ClusterConfig.test_scale(num_dcs=2, seed=9)
        assert config.num_dcs == 2
        assert config.seed == 9


class TestCostModel:
    def test_scaled_multiplies_every_parameter(self):
        scaled = CostModel().scaled(3.0)
        assert scaled.base_message_us == pytest.approx(CostModel().base_message_us * 3)
        assert scaled.per_rot_id_us == pytest.approx(CostModel().per_rot_id_us * 3)

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigurationError):
            CostModel().scaled(0.0)

    def test_negative_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(read_key_us=-1.0)

    def test_costs_are_seconds(self):
        model = CostModel(base_message_us=10.0)
        assert model.message_cost() == pytest.approx(10e-6)

    def test_read_cost_scales_with_keys_and_bytes(self):
        model = CostModel()
        assert model.read_cost(4, 100) > model.read_cost(1, 100)
        assert model.read_cost(1, 10_000) > model.read_cost(1, 8)

    def test_readers_check_cost_scales_with_ids(self):
        model = CostModel()
        assert model.readers_check_cost(500) > model.readers_check_cost(0)


class TestClusterTopology:
    def _topology(self, num_dcs=1, protocol="contrarian"):
        config = ClusterConfig.test_scale(num_dcs=num_dcs, clients_per_dc=2)
        return build_cluster(protocol, config, DEFAULT_WORKLOAD).topology

    def test_server_lookup(self):
        topology = self._topology()
        server = topology.server(0, 2)
        assert server.partition_index == 2
        assert server.dc_id == 0

    def test_server_for_key(self):
        topology = self._topology()
        key = HashPartitioner.structured_key(1, 5)
        assert topology.server_for_key(0, key).partition_index == 1

    def test_unknown_server_rejected(self):
        with pytest.raises(ConfigurationError):
            self._topology().server(3, 0)

    def test_servers_in_dc(self):
        topology = self._topology(num_dcs=2)
        assert len(topology.servers_in_dc(0)) == 4
        assert len(list(topology.all_servers())) == 8

    def test_replicas_of(self):
        topology = self._topology(num_dcs=2)
        replicas = topology.replicas_of(0, 1)
        assert len(replicas) == 1
        assert replicas[0].dc_id == 1
        assert replicas[0].partition_index == 1

    def test_no_replicas_in_single_dc(self):
        assert self._topology().replicas_of(0, 0) == []

    def test_clients_registered_per_dc(self):
        topology = self._topology(num_dcs=2)
        assert len(topology.clients) == 4
        assert len(topology.clients_in_dc(1)) == 2

    def test_nodes_are_found_by_kernel_address(self):
        topology = self._topology()
        client = topology.clients[0]
        assert topology.node_at(client.addr) is client
        assert topology.node_at(ServerAddr(0, 2)) is topology.server(0, 2)
        with pytest.raises(ConfigurationError):
            topology.node_at(ClientAddr("nobody"))

    def test_duplicate_server_rejected(self):
        config = ClusterConfig.test_scale()
        topology = ClusterTopology(Simulator(), Network(Simulator()), config)
        built = self._topology()
        server = built.server(0, 0)
        topology.add_server(server)
        with pytest.raises(ConfigurationError):
            topology.add_server(server)

    def test_cpu_utilization_without_servers(self):
        config = ClusterConfig.test_scale()
        sim = Simulator()
        topology = ClusterTopology(sim, Network(sim), config)
        assert topology.average_cpu_utilization(1.0) == 0.0

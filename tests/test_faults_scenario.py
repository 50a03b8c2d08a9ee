"""Tests for the fault-scenario DSL, the canned library and the controller."""

import pickle

import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.faults import SCENARIOS, FaultEvent, Scenario, get_scenario
from repro.faults.controller import FaultController
from repro.faults.library import dc_partition, load_spike
from repro.harness.builder import build_cluster
from repro.storage.version import Version
from repro.workload.generator import Operation
from repro.workload.parameters import DEFAULT_WORKLOAD


class TestScenarioBuilder:
    def test_class_level_at_starts_empty_scenario(self):
        scenario = Scenario.at(1.0).partition_dc(0)
        assert len(scenario.events) == 1
        assert scenario.events[0].action == "partition_dc"
        assert scenario.events[0].at == 1.0

    def test_chaining_appends_events(self):
        scenario = (Scenario.at(1.0).partition_dc(1)
                            .at(2.0).heal()
                            .at(3.0).slow_dc(0, 2.0))
        assert [event.action for event in scenario.events] == \
            ["partition_dc", "heal", "slow_dc"]

    def test_events_sorted_by_time(self):
        scenario = Scenario.at(5.0).heal().at(1.0).partition_dc(0)
        assert [event.at for event in scenario.events] == [1.0, 5.0]
        assert scenario.duration == 5.0

    def test_scenarios_are_immutable_values(self):
        base = Scenario.at(1.0).partition_dc(0)
        extended = base.at(2.0).heal()
        assert len(base.events) == 1
        assert len(extended.events) == 2
        assert base == Scenario.at(1.0).partition_dc(0)

    def test_default_phase_names(self):
        scenario = Scenario.at(1.0).partition_dc(1).at(2.0).heal()
        assert scenario.phases() == [(1.0, "partition"), (2.0, "healed")]

    def test_phase_override_and_suppression(self):
        scenario = (Scenario.at(1.0).partition_dc(1, phase="isolated")
                            .at(1.0).slow_dc(0, 2.0, phase=""))
        assert scenario.phases() == [(1.0, "isolated")]

    def test_mark_phase_without_fault(self):
        scenario = Scenario.at(0.5).mark_phase("steady")
        assert scenario.phases() == [(0.5, "steady")]

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.at(-1.0).heal()

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at=0.0, action="meteor-strike")

    def test_load_factor_range_validated(self):
        with pytest.raises(ConfigurationError):
            Scenario.at(0.0).load_factor(1.5)

    def test_workload_shift_needs_changes(self):
        with pytest.raises(ConfigurationError):
            Scenario.at(0.0).workload()

    def test_scenario_is_picklable(self):
        scenario = (Scenario.at(0.5).degrade_link(0, 1, latency_factor=3.0,
                                                  drop_probability=0.1)
                            .at(1.0).heal().named("wan"))
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        assert clone.name == "wan"

    def test_describe_lists_events(self):
        scenario = dc_partition(start=1.0, heal=2.0, dc=1)
        text = scenario.describe()
        assert "dc1-partition" in text
        assert "partition_dc" in text and "heal" in text


class TestLibrary:
    def test_all_canned_scenarios_build(self):
        for name in SCENARIOS:
            scenario = get_scenario(name)
            assert not scenario.is_empty
            assert scenario.name

    def test_get_scenario_none_is_empty(self):
        assert get_scenario("none").is_empty
        assert get_scenario("").is_empty

    def test_get_scenario_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("does-not-exist")

    def test_get_scenario_forwards_overrides(self):
        scenario = get_scenario("dc-partition", start=2.0, heal=4.0)
        assert [event.at for event in scenario.events] == [2.0, 4.0]

    def test_dc_partition_validates_order(self):
        with pytest.raises(ConfigurationError):
            dc_partition(start=2.0, heal=1.0)

    def test_load_spike_phases(self):
        scenario = load_spike(spike=1.0, relax=2.0)
        assert (1.0, "spike") in scenario.phases()
        assert (2.0, "relaxed") in scenario.phases()


class TestFaultController:
    def _cluster(self, **overrides):
        config = ClusterConfig.test_scale(num_dcs=2, clients_per_dc=2,
                                          **overrides)
        return build_cluster("contrarian", config, DEFAULT_WORKLOAD)

    def test_validates_dc_indices(self):
        cluster = self._cluster()
        scenario = Scenario.at(0.1).partition_dc(5)
        with pytest.raises(ConfigurationError):
            FaultController(cluster.topology, cluster.metrics, scenario)

    def test_validates_partition_indices(self):
        cluster = self._cluster()
        scenario = Scenario.at(0.1).pause_server(0, 99)
        with pytest.raises(ConfigurationError):
            FaultController(cluster.topology, cluster.metrics, scenario)

    def test_install_twice_rejected(self):
        cluster = self._cluster()
        scenario = Scenario.at(0.1).slow_dc(0, 2.0)
        controller = FaultController(cluster.topology, cluster.metrics, scenario)
        controller.install()
        with pytest.raises(ConfigurationError):
            controller.install()

    def test_events_applied_at_scheduled_times(self):
        cluster = self._cluster()
        scenario = (Scenario.at(0.05).slow_dc(0, 4.0)
                            .at(0.10).heal())
        controller = FaultController(cluster.topology, cluster.metrics, scenario)
        controller.install()
        server = cluster.topology.server(0, 0)
        cluster.sim.run(until=0.06)
        assert server._service_factor == 4.0
        cluster.sim.run(until=0.11)
        assert server._service_factor == 1.0
        assert [event.action for event in controller.applied_events] == \
            ["slow_dc", "heal"]
        controller.shutdown()


class TestRetentionFloors:
    """The fault controller's version GC keeps what in-flight ROTs need,
    reading those ROTs off the simulated clients."""

    def _controlled(self, protocol, **overrides):
        config = ClusterConfig.test_scale(clients_per_dc=1,
                                          max_versions_per_key=1, **overrides)
        cluster = build_cluster(protocol, config, DEFAULT_WORKLOAD)
        FaultController(cluster.topology, cluster.metrics,
                        Scenario.at(10.0).heal()).install()
        return cluster

    @staticmethod
    def _complete_rot(cluster, client):
        while client.operation is not None:
            cluster.sim.step()

    def test_vector_rot_holds_the_floor_before_its_coordinator_serves_it(self):
        cluster = self._controlled("contrarian", num_dcs=2)
        topology = cluster.topology
        for server in topology.all_servers():
            server.start()
        cluster.sim.run(until=0.05)
        server = topology.server(0, 0)
        stable = tuple(map(min, zip(*(peer.kernel.gss for peer
                                      in topology.servers_in_dc(0)))))
        assert min(stable) > 0
        key = topology.partitioner.structured_key(0, 0)
        initial = server.store.versions(key)[0]
        client = topology.clients_in_dc(0)[0]
        assert client.kernel.gss_seen == (0, 0)
        # Issued, its coordinator request still on the network: the ROT's
        # snapshot is not chosen yet, but it can be no lower than the
        # context the request carries (all zeros), which does not cover the
        # fresh version, so the initial one must stay readable.
        client.issue(Operation("rot", (key,)))
        fresh = Version(key, None, timestamp=stable[0], origin_dc=0,
                        dependency_vector=stable)
        server.store.install(fresh)
        assert server.store.versions(key) == (initial, fresh)
        self._complete_rot(cluster, client)
        newer = Version(key, None, timestamp=stable[0] + 1, origin_dc=0,
                        dependency_vector=stable)
        server.store.install(newer)
        assert server.store.versions(key) == (newer,)

    def test_cclo_version_barring_an_in_flight_rot_survives_until_it_completes(self):
        cluster = self._controlled("cc-lo", num_dcs=1)
        topology = cluster.topology
        server = topology.server(0, 0)
        key = topology.partitioner.structured_key(0, 0)
        initial = server.store.versions(key)[0]
        client = topology.clients_in_dc(0)[0]
        client.issue(Operation("rot", (key,)))
        rot_id = client.kernel.next_rot_id()
        barring = [Version(key, None, timestamp=stamp,
                           old_readers={rot_id: 0}) for stamp in (1, 2)]
        for version in barring:
            server.store.install(version)
        # The cap asks for two versions to go; each would leave a version
        # the in-flight ROT may not read as the oldest one kept.
        assert server.store.versions(key) == (initial, *barring)
        self._complete_rot(cluster, client)
        newest = Version(key, None, timestamp=3, old_readers={rot_id: 0})
        server.store.install(newest)
        assert server.store.versions(key) == (newest,)


class TestTopologyHelpers:
    def test_cross_dc_links(self):
        config = ClusterConfig.test_scale(num_dcs=3, clients_per_dc=1)
        cluster = build_cluster("contrarian", config, DEFAULT_WORKLOAD)
        links = cluster.topology.cross_dc_links(1)
        assert set(links) == {(1, 0), (0, 1), (1, 2), (2, 1)}

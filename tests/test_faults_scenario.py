"""Tests for the fault-scenario DSL, the canned library and the controller."""

import pickle

import pytest

from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.faults import SCENARIOS, FaultEvent, Scenario, get_scenario
from repro.faults.controller import FaultController
from repro.faults.library import dc_partition, load_spike, write_surge
from repro.harness.builder import build_cluster
from repro.harness.runner import run_experiment
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


@pytest.mark.slow
def test_cclo_stays_causal_through_a_write_surge():
    """``run_fault_benchmark.py --scenario write-surge``'s CC-LO run (about
    30 s).  While CC-LO kept each key's versions in arrival order, ROT
    client-dc0-0#4457 returned 2:0@14937 beside a version of 1:0 that
    causally depends on 2:0@14941: a replica receives an origin's versions
    in the order their readers checks finished there, so 2:0@14937 arrived
    after 2:0@14941, sat behind it in the chain, and once visible was read
    as the newest version.  Chains in timestamp order fix it; shorter runs
    (1.2-1.5 s, seeds 1-3) never reproduced it."""
    config = ClusterConfig.test_scale(num_dcs=2, clients_per_dc=4,
                                      duration_seconds=2.1,
                                      warmup_seconds=0.2)
    outcome = run_experiment("cc-lo", config, scenario=write_surge(),
                             checker=StreamingChecker.offline())
    assert outcome.checker_report.snapshot_violations == []


class TestTopologyHelpers:
    def test_cross_dc_links(self):
        config = ClusterConfig.test_scale(num_dcs=3, clients_per_dc=1)
        cluster = build_cluster("contrarian", config, DEFAULT_WORKLOAD)
        links = cluster.topology.cross_dc_links(1)
        assert set(links) == {(1, 0), (0, 1), (1, 2), (2, 1)}

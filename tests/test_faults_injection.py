"""Tests for the fault-injection hooks and end-to-end scenario runs."""

import pytest

from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.faults import Scenario
from repro.faults.library import dc_partition
from repro.harness.parallel import ParallelRunner, RunSpec, execute_spec
from repro.harness.runner import run_experiment
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, LinkFault, Network
from repro.sim.node import Node
from repro.workload.parameters import DEFAULT_WORKLOAD


class RecordingNode(Node):
    def __init__(self, sim, node_id, dc_id=0, service=0.0):
        super().__init__(sim, node_id, dc_id)
        self.received = []
        self._service = service

    def service_time(self, message):
        return self._service

    def handle_message(self, sender, message):
        self.received.append((self.sim.now, message))


def _pair(jitter=0.0):
    sim = Simulator(seed=3)
    network = Network(sim, LatencyModel(jitter_us=jitter))
    a = RecordingNode(sim, "a", dc_id=0)
    b = RecordingNode(sim, "b", dc_id=1)
    return sim, network, a, b


class TestLinkFaults:
    def test_link_fault_validation(self):
        with pytest.raises(ConfigurationError):
            LinkFault(latency_factor=0.0)
        with pytest.raises(ConfigurationError):
            LinkFault(drop_probability=1.0)

    def test_degraded_link_adds_latency(self):
        sim, network, a, b = _pair()
        network.send(a, b, "healthy")
        sim.run()
        healthy_time = b.received[0][0]

        sim2, network2, a2, b2 = _pair()
        network2.set_link_fault(0, 1, latency_factor=10.0)
        network2.send(a2, b2, "degraded")
        sim2.run()
        assert b2.received[0][0] > healthy_time * 5

    def test_drop_redelivers_after_timeout(self):
        sim, network, a, b = _pair()
        network.set_link_fault(0, 1, drop_probability=0.999,
                               redelivery_timeout_us=10_000.0)
        network.send(a, b, "retransmitted")
        sim.run()
        # The message is never lost, only delayed by redelivery timeouts.
        assert len(b.received) == 1
        assert b.received[0][0] > 0.005
        assert network.messages_dropped > 0

    def test_blocked_link_holds_and_heals_in_fifo_order(self):
        sim, network, a, b = _pair()
        network.block_link(0, 1)
        for index in range(5):
            network.send(a, b, f"m{index}")
        sim.run()
        assert b.received == []
        assert network.held_message_count == 5
        network.unblock_link(0, 1)
        sim.run()
        assert [message for _, message in b.received] == \
            [f"m{index}" for index in range(5)]
        assert network.held_message_count == 0

    def test_blocked_link_is_directional(self):
        sim, network, a, b = _pair()
        network.block_link(0, 1)
        network.send(b, a, "reverse")
        sim.run()
        assert len(a.received) == 1

    def test_degrading_a_blocked_link_keeps_it_blocked(self):
        # Composed scenarios may degrade a link that is already severed; the
        # held messages must stay held (and FIFO) until an explicit heal.
        sim, network, a, b = _pair()
        network.block_link(0, 1)
        network.send(a, b, "held-early")
        network.set_link_fault(0, 1, latency_factor=4.0)
        network.send(a, b, "held-late")
        sim.run()
        assert b.received == []
        assert network.held_message_count == 2
        network.unblock_link(0, 1)
        sim.run()
        assert [message for _, message in b.received] == \
            ["held-early", "held-late"]

    def test_clear_link_faults_flushes_everything(self):
        sim, network, a, b = _pair()
        network.block_link(0, 1)
        network.block_link(1, 0)
        network.send(a, b, "x")
        network.send(b, a, "y")
        network.clear_link_faults()
        sim.run()
        assert len(a.received) == 1 and len(b.received) == 1


class TestNodeFaults:
    def test_service_factor_inflates_service_time(self):
        sim = Simulator()
        node = RecordingNode(sim, "n", service=0.010)
        node.set_service_factor(3.0)
        node.enqueue_message(node, "slow")
        sim.run()
        assert node.received[0][0] == pytest.approx(0.030)
        assert node.stats.busy_time == pytest.approx(0.030)

    def test_service_factor_validation(self):
        node = RecordingNode(Simulator(), "n")
        with pytest.raises(ConfigurationError):
            node.set_service_factor(0.0)

    def test_pause_freezes_queue_until_resume(self):
        sim = Simulator()
        node = RecordingNode(sim, "n", service=0.001)
        node.pause()
        node.enqueue_message(node, "queued")
        sim.run(until=1.0)
        assert node.received == []
        assert node.paused and node.queue_length == 1
        node.resume()
        sim.run()
        assert len(node.received) == 1

    def test_pause_lets_in_service_message_finish(self):
        sim = Simulator()
        node = RecordingNode(sim, "n", service=0.010)
        node.enqueue_message(node, "first")
        node.enqueue_message(node, "second")
        sim.run(until=0.005)
        node.pause()
        sim.run(until=1.0)
        assert [message for _, message in node.received] == ["first"]
        node.resume()
        sim.run()
        assert len(node.received) == 2


class TestWorkloadShifts:
    def _generator(self):
        from repro.cluster.partitioning import HashPartitioner
        from repro.workload.generator import WorkloadGenerator
        import random
        return WorkloadGenerator(DEFAULT_WORKLOAD, HashPartitioner(4), 64,
                                 random.Random(1))

    def test_set_parameters_changes_put_rate(self):
        generator = self._generator()
        generator.set_parameters(DEFAULT_WORKLOAD.with_changes(write_ratio=1.0))
        operations = [generator.next_operation() for _ in range(50)]
        assert all(operation.is_put for operation in operations)

    def test_set_parameters_validates_rot_size(self):
        from repro.errors import WorkloadError
        generator = self._generator()
        with pytest.raises(WorkloadError):
            generator.set_parameters(DEFAULT_WORKLOAD.with_changes(rot_size=9))

    def test_rotate_keys_moves_hot_set(self):
        generator = self._generator()
        hot_before = {generator._key_on_partition(0) for _ in range(200)}
        generator.rotate_keys(17)
        hot_after = {generator._key_on_partition(0) for _ in range(200)}
        # The zipfian ranks are unchanged but map to shifted key indices.
        assert hot_before != hot_after

    def test_client_suspend_resume(self):
        config = ClusterConfig.test_scale(num_dcs=1, clients_per_dc=2,
                                          duration_seconds=0.3,
                                          warmup_seconds=0.1)
        scenario = (Scenario.at(0.0).load_factor(0.5, phase="")
                            .at(0.2).load_factor(1.0, phase="spike"))
        outcome = run_experiment("contrarian", config, scenario=scenario)
        suspended_ops = [client.generator.generated_puts
                         + client.generator.generated_rots
                         for client in outcome.cluster.topology.clients]
        # The second client only started issuing at the spike.
        assert suspended_ops[1] < suspended_ops[0]
        assert suspended_ops[1] > 0


class TestScenarioRuns:
    CONFIG = dict(num_dcs=2, clients_per_dc=3, duration_seconds=1.2,
                  warmup_seconds=0.1)
    SCENARIO = dc_partition(start=0.4, heal=0.8, dc=1)

    def test_scenario_free_run_has_no_phases(self):
        config = ClusterConfig.test_scale(num_dcs=1, clients_per_dc=2,
                                          duration_seconds=0.3,
                                          warmup_seconds=0.1)
        result = run_experiment("contrarian", config).result
        assert result.phases == ()

    def test_partition_produces_phase_slices_and_gauges(self):
        config = ClusterConfig.test_scale(**self.CONFIG)
        result = run_experiment("contrarian", config,
                                scenario=self.SCENARIO).result
        assert [phase.name for phase in result.phases] == \
            ["baseline", "partition", "healed"]
        partition = result.phase("partition")
        assert partition.rots_completed > 0
        # The partition holds every cross-DC message and stalls visibility.
        assert partition.gauges["held_messages_max"] > 0
        assert partition.gauges["visibility_lag_ms_max"] > 100.0
        assert result.phase("healed").gauges["held_messages_max"] == 0.0

    def test_identical_seeds_identical_results_serial_and_parallel(self):
        config = ClusterConfig.test_scale(**self.CONFIG)
        spec = RunSpec(protocol="contrarian", config=config,
                       scenario=self.SCENARIO)
        serial = execute_spec(spec)
        pooled = ParallelRunner(max_workers=2).run([spec, spec])
        assert serial == pooled[0] == pooled[1]

    @pytest.mark.slow
    @pytest.mark.parametrize("protocol", ["contrarian", "cure", "cc-lo"])
    def test_partition_zero_violations(self, protocol):
        config = ClusterConfig.test_scale(**self.CONFIG)
        outcome = run_experiment(protocol, config, scenario=self.SCENARIO,
                                 checker=StreamingChecker.offline())
        report = outcome.checker_report
        assert report is not None
        assert report.ok, (report.snapshot_violations[:3],
                           report.session_violations[:3])

    @pytest.mark.slow
    def test_gc_stall_inflates_latency(self):
        config = ClusterConfig.test_scale(num_dcs=1, clients_per_dc=4,
                                          duration_seconds=1.2,
                                          warmup_seconds=0.1)
        scenario = (Scenario.at(0.4).pause_server(0, 0)
                            .at(0.6).resume_server(0, 0, phase="recovered"))
        result = run_experiment("contrarian", config, scenario=scenario).result
        paused = result.phase("paused")
        baseline = result.phase("baseline")
        # Every ROT spans all 4 partitions, so the pause stalls the closed
        # loop: almost nothing completes while the server is frozen, and the
        # stalled ROTs land in the recovery phase with ~200ms latencies.
        assert paused.rots_completed < baseline.rots_completed
        assert paused.gauges["stalled_rots_max"] > 0
        recovered = result.phase("recovered")
        assert recovered.rot_latency.max_ms > 50.0

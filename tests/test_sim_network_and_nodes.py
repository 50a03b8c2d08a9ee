"""Tests for the network model and the CPU-queue node model."""

import pytest

from repro.errors import ConfigurationError
from repro.clocks.units import microseconds
from repro.core.common.kernel import message_size
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node


class RecordingNode(Node):
    """A node that records every message it processes."""

    def __init__(self, sim, node_id, dc_id=0, service=0.0):
        super().__init__(sim, node_id, dc_id)
        self.received = []
        self._service = service

    def service_time(self, message):
        return self._service

    def handle_message(self, sender, message):
        self.received.append((self.sim.now, sender.node_id, message))


class SizedMessage:
    def __init__(self, size):
        self._size = size

    def size_bytes(self):
        return self._size


class TestLatencyModel:
    def test_defaults_are_symmetric(self):
        model = LatencyModel()
        assert model.intra_dc_us == model.inter_dc_us

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(intra_dc_us=-1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(bandwidth_bytes_per_us=0)

    def test_larger_messages_take_longer(self):
        model = LatencyModel(jitter_us=0.0)
        small = model.one_way_delay(True, 64, 0.0)
        large = model.one_way_delay(True, 64_000, 0.0)
        assert large > small

    def test_inter_dc_latency_used_across_dcs(self):
        model = LatencyModel(intra_dc_us=10.0, inter_dc_us=1000.0, jitter_us=0.0)
        assert model.one_way_delay(False, 0, 0.0) > model.one_way_delay(True, 0, 0.0)

    def test_jitter_adds_latency(self):
        model = LatencyModel(jitter_us=100.0)
        assert model.one_way_delay(True, 0, 1.0) > model.one_way_delay(True, 0, 0.0)


class TestNetwork:
    def test_message_is_delivered(self):
        sim = Simulator()
        network = Network(sim)
        a = RecordingNode(sim, "a")
        b = RecordingNode(sim, "b")
        network.send(a, b, "hello")
        sim.run()
        assert len(b.received) == 1
        assert b.received[0][1] == "a"

    def test_delivery_takes_nonzero_time(self):
        sim = Simulator()
        network = Network(sim)
        a, b = RecordingNode(sim, "a"), RecordingNode(sim, "b")
        network.send(a, b, "hello")
        sim.run()
        assert b.received[0][0] > 0.0

    def test_fifo_per_channel(self):
        """Messages between the same pair of nodes arrive in send order."""
        sim = Simulator(seed=3)
        network = Network(sim, LatencyModel(jitter_us=500.0))
        a, b = RecordingNode(sim, "a"), RecordingNode(sim, "b")
        for index in range(50):
            network.send(a, b, index)
        sim.run()
        assert [message for _, _, message in b.received] == list(range(50))

    def test_stats_count_messages_and_bytes(self):
        sim = Simulator()
        network = Network(sim)
        a, b = RecordingNode(sim, "a"), RecordingNode(sim, "b", dc_id=1)
        network.send(a, b, SizedMessage(100))
        network.send(b, a, SizedMessage(200))
        sim.run()
        assert network.stats.messages == 2
        assert network.stats.bytes == 300
        assert network.stats.inter_dc_messages == 2

    def test_unknown_message_size_defaults(self):
        """One sizing rule (the network's, the traffic counters' and the TCP
        flush threshold's): ``size_bytes()`` if the message has it."""
        assert message_size(object()) == 64
        assert message_size(object(), 0) == 0
        assert message_size(SizedMessage(12)) == 12
        sim = Simulator()
        network = Network(sim)
        network.send(RecordingNode(sim, "a"), RecordingNode(sim, "b"), object())
        assert network.stats.bytes == 64


class TestNodeCpuQueue:
    def test_messages_processed_in_fifo_order(self):
        sim = Simulator()
        node = RecordingNode(sim, "srv", service=microseconds(10))
        sender = RecordingNode(sim, "cli")
        for index in range(5):
            node.enqueue_message(sender, index)
        sim.run()
        assert [message for _, _, message in node.received] == list(range(5))

    def test_service_time_delays_completion(self):
        sim = Simulator()
        node = RecordingNode(sim, "srv", service=0.5)
        node.enqueue_message(RecordingNode(sim, "cli"), "x")
        sim.run()
        assert node.received[0][0] == pytest.approx(0.5)

    def test_queueing_adds_wait_time(self):
        sim = Simulator()
        node = RecordingNode(sim, "srv", service=1.0)
        sender = RecordingNode(sim, "cli")
        node.enqueue_message(sender, "first")
        node.enqueue_message(sender, "second")
        sim.run()
        assert node.received[1][0] == pytest.approx(2.0)
        assert node.stats.total_queue_wait == pytest.approx(1.0)

    def test_busy_time_accounting(self):
        sim = Simulator()
        node = RecordingNode(sim, "srv", service=0.25)
        sender = RecordingNode(sim, "cli")
        for _ in range(4):
            node.enqueue_message(sender, "op")
        sim.run()
        assert node.stats.busy_time == pytest.approx(1.0)
        assert node.stats.utilization(2.0) == pytest.approx(0.5)
        assert node.stats.messages_processed == 4

    def test_average_queue_wait_without_messages(self):
        node = RecordingNode(Simulator(), "srv")
        assert node.stats.average_queue_wait() == 0.0

    def test_base_node_handle_message_is_abstract(self):
        node = Node(Simulator(), "raw", 0)
        with pytest.raises(NotImplementedError):
            node.handle_message(node, "x")

"""Contract of the shared kernel host (:mod:`repro.core.common.host`).

Two layers:

* the host against a *recording fake backend* (``_send`` / ``_arm_timer`` /
  ``_completed`` / a manual clock) and a *scripted kernel* — effect order,
  traffic accounting, what reaches the metrics and the checker, and that
  swapped collaborators are picked up at the next call;
* the simulated and the asyncio driver against each other — a protocol
  registered from two toy kernel classes (no driver code) must produce the
  same per-node ``(kind, name, data)`` event sequence, the same records and
  the same counters on both backends for the same scripted operations.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.api import CausalStore
from repro.causal.checker import RecordedPut, RecordedRead, RecordedRot
from repro.causal.streaming import ObservationBuffer
from repro.clocks.timesource import FixedClock
from repro.cluster.config import ClusterConfig
from repro.core.common.host import ClientHost, ServerHost
from repro.core.common.kernel import (
    ClientAddr,
    ClientKernel,
    Complete,
    PutOutcome,
    RotOutcome,
    Send,
    ServerAddr,
    ServerKernel,
    SetTimer,
)
from repro.core.common.messages import Message, ReadResult
from repro.core.registry import register_protocol, unregister_protocol
from repro.errors import ProtocolError
from repro.harness.builder import build_cluster
from repro.metrics.collectors import MetricsRegistry
from repro.metrics.overheads import OverheadCounters
from repro.obs.bus import EventBus
from repro.runtime.cluster import RealtimeCluster
from repro.storage.mvstore import MultiVersionStore
from repro.workload.parameters import DEFAULT_WORKLOAD


class Ping(Message):
    """A message with the default 32-byte wire size."""


class ScriptedKernel:
    """Returns the next scripted effect list from every entry point and logs
    how it was called."""

    dc_id = 0
    partition_index = 3
    node_id = "server-dc0-p3"
    client_id = "client-dc0-0"

    def __init__(self, *scripts):
        self.scripts = list(scripts)
        self.calls = []
        self.counters = OverheadCounters()
        self.current_trace = None

    def _next(self, *call):
        self.calls.append(call)
        return self.scripts.pop(0) if self.scripts else []

    def on_message(self, *args):
        return self._next("on_message", *args)

    def on_timer(self, tag, payload, now):
        return self._next("on_timer", tag, payload, now)

    def start_operation(self, operation, sequence, now):
        return self._next("start_operation", operation, sequence, now)


class _RecordingBackend:
    """The backend primitives (with a manual clock for ``now``), recorded in
    one ordered log."""

    def _send(self, dest, message, size):
        self.log.append(("send", dest, message, self.current_trace))


class FakeServer(_RecordingBackend, ServerHost):
    def __init__(self, kernel, clock):
        super().__init__(kernel, clock)
        self.log = []

    def _arm_timer(self, timer, trace):
        self.log.append(("arm", timer, trace))


class FakeClient(_RecordingBackend, ClientHost):
    def __init__(self, kernel, clock, checker=None):
        super().__init__(kernel, clock, None, MetricsRegistry(), checker)
        self.log = []

    def _completed(self, result):
        # By now the host must have recorded the operation.
        self.log.append(("completed", result, self.operation,
                         self.metrics.puts_completed
                         + self.metrics.rots_completed))


class Operation:
    def __init__(self, kind, *keys):
        self.kind, self.keys, self.value_size = kind, keys, 8
        self.is_put = kind == "put"


PEER, CLIENT = ServerAddr(1, 3), ClientAddr("client-dc0-0")


class TestServerHost:
    def test_effects_run_in_emission_order_and_sends_are_counted(self):
        first, second = Ping(), Ping()
        timer = SetTimer(0.5, "later", payload="p")
        kernel = ScriptedKernel([Send(PEER, first), timer,
                                 Send(CLIENT, second)])
        clock = FixedClock(2.0)
        server = FakeServer(kernel, clock)
        server.dispatch(CLIENT, "request", "t#1")
        assert kernel.calls == [("on_message", CLIENT, "request", 2.0)]
        assert server.log == [("send", PEER, first, "t#1"),
                              ("arm", timer, "t#1"),
                              ("send", CLIENT, second, "t#1")]
        assert kernel.counters.messages_sent == 2
        assert kernel.counters.bytes_sent == 2 * Ping().size_bytes()
        assert server.counters is kernel.counters
        assert (server.node_id, server.dc_id, server.partition_index,
                server.addr) == ("server-dc0-p3", 0, 3, ServerAddr(0, 3))

    def test_timers_adopt_the_trace_they_were_armed_under(self):
        kernel = ScriptedKernel([Send(PEER, Ping())], [])
        clock = FixedClock(1.0)
        server = FakeServer(kernel, clock)
        server.tracer = EventBus(clock)
        server.fire_timer("later", "p", "t#9")
        assert kernel.calls == [("on_timer", "later", "p", 1.0)]
        assert server.log[0][3] == "t#9" and kernel.current_trace == "t#9"
        server.fire_timer("periodic")  # background work: no trace
        assert server.current_trace is None and kernel.current_trace is None

    def test_a_server_cannot_complete_operations(self):
        done = Complete("put", PutOutcome("k", 1, 0))
        server = FakeServer(ScriptedKernel([done]), FixedClock())
        with pytest.raises(ProtocolError, match="cannot execute"):
            server.dispatch(CLIENT, "request", None)
        with pytest.raises(ProtocolError, match="cannot execute"):
            server.run_effects(["not an effect"])

    def test_a_swapped_kernel_is_used_from_the_next_call(self):
        server = FakeServer(ScriptedKernel(), FixedClock())
        replacement = ScriptedKernel([Send(PEER, Ping())])
        server.kernel = replacement
        server.dispatch(CLIENT, "request", None)
        assert len(replacement.calls) == 1 and len(server.log) == 1
        assert replacement.counters.messages_sent == 1


class TestClientHost:
    def test_put_is_issued_recorded_and_handed_to_the_backend(self):
        request = Ping()
        outcome = PutOutcome("k", timestamp=17, origin_dc=0,
                             dependencies=(("j", 3, 0),))
        kernel = ScriptedKernel([Send(PEER, request)],
                                [Complete("put", outcome)])
        clock = FixedClock(1.0)
        checker = ObservationBuffer()
        client = FakeClient(kernel, clock, checker)
        operation = Operation("put", "k")

        client.issue(operation)
        assert kernel.calls == [("start_operation", operation, 1, 1.0)]
        assert client.log == [("send", PEER, request, None)]
        assert client.operation is operation
        assert client.metrics.puts_issued == 1
        assert kernel.counters.messages_sent == 0  # clients send uncounted

        clock.advance(0.25)
        client.dispatch(PEER, "reply", None)
        assert kernel.calls[1] == ("on_message", "reply", 1.25)
        assert client.log[1] == ("completed", outcome, None, 1)
        assert client.outcome is outcome
        assert client.metrics.put_latencies.samples() == (0.25,)
        assert checker.drain() == ((RecordedPut(
            key="k", timestamp=17, origin_dc=0, client="client-dc0-0",
            sequence=1, dependencies=(("j", 3, 0),)),), ())

    def test_rot_records_every_read(self):
        outcome = RotOutcome("client-dc0-0#1", {
            "a": ReadResult("a", 4, 0, 8), "b": ReadResult("b", 6, 1, 8)})
        kernel = ScriptedKernel([], [Complete("rot", outcome)])
        checker = ObservationBuffer()
        client = FakeClient(kernel, FixedClock(), checker)
        client.issue(Operation("rot", "a", "b"))
        client.dispatch(PEER, "reply", None)
        assert client.metrics.rots_issued == client.metrics.rots_completed == 1
        assert checker.drain() == ((), (RecordedRot(
            rot_id="client-dc0-0#1", client="client-dc0-0", sequence=1,
            reads=(RecordedRead("a", 4, 0), RecordedRead("b", 6, 1))),))

    def test_issue_mints_the_trace_and_brackets_the_operation(self):
        outcome = PutOutcome("k", 1, 0)
        kernel = ScriptedKernel([Send(PEER, Ping())],
                                [Complete("put", outcome)])
        clock = FixedClock()
        client = FakeClient(kernel, clock)
        client.tracer = bus = EventBus(clock)
        client.issue(Operation("put", "k"))
        assert client.log[0][3] == kernel.current_trace == "client-dc0-0#1"
        client.dispatch(PEER, "reply", "client-dc0-0#1")
        assert [(e.kind, e.name, e.trace, e.data) for e in bus.events()] == [
            ("op_start", "put", "client-dc0-0#1", (("key", "k"),)),
            ("msg_send", "Ping", "client-dc0-0#1", ()),
            ("msg_recv", "str", "client-dc0-0#1", ()),
            ("op_finish", "put", "client-dc0-0#1", (("key", "k"),)),
        ]

    def test_a_client_cannot_arm_timers(self):
        client = FakeClient(ScriptedKernel([SetTimer(0.1, "t")]), FixedClock())
        with pytest.raises(ProtocolError, match="cannot execute"):
            client.issue(Operation("put", "k"))

    def test_swapped_metrics_and_checker_are_used_from_the_next_call(self):
        kernel = ScriptedKernel([], [Complete("put", PutOutcome("k", 1, 0))])
        client = FakeClient(kernel, FixedClock())
        client.metrics = metrics = MetricsRegistry()
        client.issue(Operation("put", "k"))
        client.checker = checker = ObservationBuffer()
        client.dispatch(PEER, "reply", None)
        assert metrics.puts_issued == metrics.puts_completed == 1
        assert checker.drain()[0] == (RecordedPut("k", 1, 0, "client-dc0-0", 1),)


# --------------------------------------------------------------------------
# The two real drivers against each other
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EchoRequest(Message):
    kind: str
    key: str


class EchoReply(EchoRequest):
    pass


class EchoServerKernel(ServerKernel):
    """Answers every request from a timer, after telling its DC peer."""

    @classmethod
    def from_config(cls, config, dc_id, partition_index, *, partitioner,
                    time_source, skew_offset_us=0.0):
        kernel = cls(node_id=f"server-dc{dc_id}-p{partition_index}",
                     dc_id=dc_id, partition_index=partition_index,
                     num_dcs=config.num_dcs,
                     num_partitions=config.num_partitions,
                     partitioner=partitioner)
        kernel.store = MultiVersionStore()
        return kernel

    def _dispatch(self, sender, message):
        if isinstance(sender, ClientAddr):
            self._send(self.peers_in_dc()[0], message)
            self._set_timer(0.001, "reply", (sender, message))

    def _handle_timer(self, tag, payload):
        sender, request = payload
        self._send(sender, EchoReply(request.kind, request.key))


class EchoClientKernel(ClientKernel):
    @classmethod
    def from_config(cls, config, client_id, dc_id, *, partitioner, rng):
        return cls(client_id=client_id, dc_id=dc_id, partitioner=partitioner)

    def _issue_put(self, operation):
        self._send(ServerAddr(self.dc_id, 0),
                   EchoRequest(operation.kind, operation.keys[0]))

    _issue_rot = _issue_put

    def _dispatch(self, message):
        if message.kind == "put":
            self._complete("put", PutOutcome(message.key, self.sequence,
                                             self.dc_id))
        else:
            self._complete("rot", RotOutcome(self.next_rot_id(), {
                message.key: ReadResult(message.key, 0, 0, 8)}))


OPERATIONS = [Operation("put", "0:1"), Operation("rot", "0:1"),
              Operation("put", "1:0")]


@pytest.fixture
def echo_protocol():
    register_protocol("echo", kernel=EchoServerKernel,
                      client_kernel=EchoClientKernel, transports=("inproc",))
    yield "echo"
    unregister_protocol("echo")


def _observed(bus, checker, servers):
    per_node = {}
    for event in bus.events():
        per_node.setdefault(event.node, []).append(
            (event.kind, event.name, event.trace, event.data))
    counters = {server.node_id: (server.counters.messages_sent,
                                 server.counters.bytes_sent)
                for server in servers}
    return per_node, checker.drain(), counters


def _run_on_sim(protocol, config):
    cluster = build_cluster(protocol, config, DEFAULT_WORKLOAD,
                            checker=ObservationBuffer(), trace=True)
    client = cluster.topology.clients[0]
    for operation in OPERATIONS:
        client.issue(operation)
        cluster.sim.run(until=cluster.sim.now + 0.01)
        assert client.operation is None
    return _observed(cluster.trace_bus, cluster.checker,
                     cluster.topology.all_servers())


def _run_on_asyncio(protocol, config):
    async def main():
        cluster = RealtimeCluster(protocol, config, workload_clients=False,
                                  checker=ObservationBuffer(), trace=True)
        client = cluster.add_client(0, 0)
        await cluster.start()
        try:
            for operation in OPERATIONS:
                await client.perform(operation, timeout=5.0)
        finally:
            await cluster.stop()
        assert cluster.first_failure() is None
        return _observed(cluster.trace_bus, cluster.checker,
                         cluster.servers.values())
    return asyncio.run(main())


def test_both_drivers_produce_the_same_events_records_and_counters(
        echo_protocol):
    config = ClusterConfig.test_scale(clients_per_dc=1)
    sim_events, sim_history, sim_counters = _run_on_sim(echo_protocol, config)
    rt_events, rt_history, rt_counters = _run_on_asyncio(echo_protocol, config)
    assert sim_events == rt_events
    assert sim_history == rt_history
    assert sim_counters == rt_counters
    # And the stream is what the script says: issue -> request -> peer note,
    # timer -> reply -> completion.
    assert [event[:2] for event in sim_events["client-dc0-0"][:4]] == [
        ("op_start", "put"), ("msg_send", "EchoRequest"),
        ("msg_recv", "EchoReply"), ("op_finish", "put")]
    assert [event[:2] for event in sim_events["server-dc0-p0"][:5]] == [
        ("msg_recv", "EchoRequest"), ("msg_send", "EchoRequest"),
        ("effect", "set-timer:reply"), ("msg_send", "EchoReply"),
        ("msg_recv", "EchoRequest")]
    assert sim_counters["server-dc0-p0"][0] == 2 * len(OPERATIONS)


def test_the_facade_drives_a_kernel_only_protocol(echo_protocol):
    for backend in ("sim", "inproc"):
        with CausalStore(protocol=echo_protocol, backend=backend) as store:
            assert store.put("0:1").values == {"0:1": 1}
            assert store.get("0:1") == 0

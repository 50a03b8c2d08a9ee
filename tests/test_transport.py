"""Transport-layer tests: inproc routing parity and TCP delivery.

The TCP tests run two real transports over loopback sockets inside a private
event loop — fast enough for the default tier (no cluster, no processes).
"""

import asyncio
import dataclasses
import inspect

import pytest

from repro.api import CausalStore
from repro.core.common.kernel import ClientAddr, ServerAddr
from repro.core.common.messages import CcloPutReply, VectorPutRequest
from repro.errors import ConfigurationError, TransportError, WireFormatError
from repro.harness.runner import run_experiment
from repro.runtime.cluster import RealtimeCluster
from repro.runtime.process import ProcessCluster, WorkerSpec
from repro.runtime.transport import Envelope, InprocTransport, TcpTransport
from repro.wire import decode, encode


class _SinkNode:
    """Minimal node: records every delivery."""

    def __init__(self) -> None:
        self.received: list[tuple[object, object]] = []
        self.traces: list[object] = []
        self.event = asyncio.Event()

    def deliver(self, sender, message, trace=None) -> None:
        self.received.append((sender, message))
        self.traces.append(trace)
        self.event.set()


PUT = VectorPutRequest(key="k", value_size=8, client_vector=(0,),
                       client_id="c-0", sequence=1)


class TestEnvelope:
    def test_envelope_round_trips_with_addresses(self):
        envelope = Envelope(sender=ClientAddr("c-0"),
                            dest=ServerAddr(0, 1), payload=PUT)
        for format in ("binary", "json"):
            decoded = decode(encode(envelope, format=format))
            assert decoded == envelope
            assert isinstance(decoded.dest, ServerAddr)


class TestInprocTransport:
    def test_local_delivery_and_unroutable_errors(self):
        transport = InprocTransport()
        node = _SinkNode()
        transport.register_local(ServerAddr(0, 0), node)
        transport.send(None, ServerAddr(0, 0), PUT)
        assert node.received == [(None, PUT)]
        with pytest.raises(ConfigurationError, match="no server at DC 1"):
            transport.send(None, ServerAddr(1, 0), PUT)
        with pytest.raises(ConfigurationError, match="unknown client"):
            transport.send(None, ClientAddr("ghost"), PUT)
        with pytest.raises(ConfigurationError, match="cannot route"):
            transport.send(None, "not-an-addr", PUT)

    def test_no_batch_option_above_the_tcp_transport(self):
        for accepts in (run_experiment, RealtimeCluster,
                        ProcessCluster, InprocTransport):
            assert "batch" not in inspect.signature(accepts).parameters
        assert not {"batch", "stream_observations"} & {
            field.name for field in dataclasses.fields(WorkerSpec)}
        # Nor is there a checker picked by name: it is an instance (or None)
        # wherever one is accepted, and a str is not a recorder.
        for accepts in (run_experiment, RealtimeCluster,
                        ProcessCluster, CausalStore):
            checker = inspect.signature(accepts).parameters["checker"]
            assert checker.default is None
        for name in ("streaming", "monolithic"):
            with pytest.raises(ConfigurationError, match="record_put"):
                ProcessCluster("contrarian", checker=name)


class TestTcpTransport:
    def test_cross_transport_delivery_and_graceful_flush(self):
        async def scenario():
            a, b = TcpTransport(), TcpTransport()
            await a.start()
            await b.start()
            server_node, client_node = _SinkNode(), _SinkNode()
            a.register_local(ServerAddr(0, 0), server_node)
            b.register_local(ClientAddr("c-0"), client_node)
            peers = {ServerAddr(0, 0): ("127.0.0.1", a.port),
                     ClientAddr("c-0"): ("127.0.0.1", b.port)}
            a.set_peers(peers)
            b.set_peers(peers)

            # b -> a over the wire; a -> b reply.
            b.send(ClientAddr("c-0"), ServerAddr(0, 0), PUT)
            await asyncio.wait_for(server_node.event.wait(), 5.0)
            assert server_node.received == [(ClientAddr("c-0"), PUT)]
            reply = CcloPutReply(key="k", timestamp=9)
            a.send(ServerAddr(0, 0), ClientAddr("c-0"), reply)
            await asyncio.wait_for(client_node.event.wait(), 5.0)
            assert client_node.received == [(ServerAddr(0, 0), reply)]

            # Local destinations short-circuit (no socket round trip).
            local_before = len(server_node.received)
            a.send(None, ServerAddr(0, 0), PUT)
            assert len(server_node.received) == local_before + 1

            # A burst enqueued right before stop() must still be flushed
            # (graceful shutdown drains outbound queues).
            client_node.event.clear()
            for sequence in range(50):
                b.send(ClientAddr("c-0"), ServerAddr(0, 0),
                       CcloPutReply(key=f"k{sequence}", timestamp=sequence))
            await b.stop()
            for _ in range(200):
                if len(server_node.received) >= local_before + 1 + 50:
                    break
                await asyncio.sleep(0.01)
            assert len(server_node.received) == local_before + 1 + 50
            await a.stop()
            assert a.failure is None
            assert b.failure is None

        asyncio.run(scenario())

    def test_stop_is_terminal_for_remote_sends(self):
        async def scenario():
            a, b = TcpTransport(), TcpTransport()
            await a.start()
            await b.start()
            node = _SinkNode()
            b.register_local(ServerAddr(0, 0), node)
            a.set_peers({ServerAddr(0, 0): ("127.0.0.1", b.port)})
            await a.stop()
            with pytest.raises(TransportError, match="transport is stopped"):
                a.send(None, ServerAddr(0, 0), PUT)
            await asyncio.sleep(0.05)
            assert node.received == []
            await b.stop()
            # No link, no drain task, no scheduled flush left behind.
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(scenario())

    def test_remote_send_without_a_running_loop_raises(self):
        transport = TcpTransport()
        transport.set_peers({ServerAddr(0, 0): ("127.0.0.1", 1)})
        with pytest.raises(RuntimeError, match="no running event loop"):
            transport.send(None, ServerAddr(0, 0), PUT)

    def test_unroutable_without_peer_entry(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            try:
                with pytest.raises(ConfigurationError, match="no server"):
                    transport.send(None, ServerAddr(3, 3), PUT)
            finally:
                await transport.stop()

        asyncio.run(scenario())

    def test_garbage_on_the_socket_sets_failure(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            node = _SinkNode()
            transport.register_local(ServerAddr(0, 0), node)
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", transport.port)
            writer.write(b"\x00\x00\x00\x04junk")
            await writer.drain()
            writer.close()
            for _ in range(100):
                if transport.failure is not None:
                    break
                await asyncio.sleep(0.01)
            assert isinstance(transport.failure, WireFormatError)
            await transport.stop()

        asyncio.run(scenario())

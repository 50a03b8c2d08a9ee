"""The process-cluster control plane, driven in-process over socket pairs.

Both ends of a worker's channel run here without spawning anything: the
parent's channel reader (``ProcessCluster._read_channel``) is fed frames by
hand from the other end of a socket pair, and a worker's main coroutine
(``_worker_main``) is served by a hand-held parent end.  So every rule of
the one handshake — a worker is ready when it says ``WorkerReady``, and gone
on EOF before its result or on ``WorkerError``, and on nothing else — is
checked at every point of a worker's life in well under a second each.
"""

import asyncio
import socket
import time

import pytest

from repro.causal.checker import RecordedPut, RecordedRead, RecordedRot
from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.core.common.kernel import ClientAddr, ServerAddr, client_node_id
from repro.errors import ProtocolError, RuntimeBackendError, WireFormatError
from repro.metrics.overheads import OverheadCounters
from repro.runtime.process import (
    ObservationChunk,
    ProcessCluster,
    Shutdown,
    StartRun,
    WorkerError,
    WorkerReady,
    WorkerResult,
    WorkerRole,
    WorkerSpec,
    _worker_main,
    _Worker,
)
from repro.runtime.transport import TcpTransport
from repro.wire import (
    MAX_FRAME_BYTES,
    decode,
    encode,
    frame,
    read_frame,
    write_frame,
)
from repro.workload.parameters import WorkloadParameters

#: 1 DC x 1 partition, one workload client: the smallest whole run.
CONFIG = ClusterConfig.test_scale(num_partitions=1, num_dcs=1,
                                  clients_per_dc=1, warmup_seconds=0.0)
WORKLOAD = WorkloadParameters(rot_size=1)
SERVER = WorkerRole(0, ((0, 0),), ())
CLIENTS = WorkerRole(1, (), ((0, 0),))

#: Wall-clock bound (seconds) on anything that must happen "at once".
PROMPT = 1.0


def result(rots: int = 0) -> WorkerResult:
    return WorkerResult(rot_samples=(0.001,) * rots, put_samples=(),
                        rots_issued=rots, puts_issued=0,
                        overhead=OverheadCounters())


class _Process:
    """What the parent reads of a worker's process: its exit code."""

    def __init__(self, exitcode) -> None:
        self.exitcode = exitcode


# --------------------------------------------------------------------------
# Parent side: one channel reader per worker
# --------------------------------------------------------------------------

def make_cluster() -> ProcessCluster:
    return ProcessCluster("contrarian", CONFIG, WORKLOAD,
                          checker=StreamingChecker.offline())


async def attach(cluster: ProcessCluster, role: WorkerRole,
                 exitcode=-9) -> tuple[_Worker, socket.socket]:
    """Give ``cluster`` a worker record read from a socket pair, as
    ``start()`` does at spawn; returns it and the worker's end."""
    ours, theirs = socket.socketpair()
    reader, writer = await asyncio.open_connection(sock=ours)
    worker = cluster._workers[role.worker_id] = _Worker(
        role, _Process(exitcode), writer, port=0)
    worker.reading = asyncio.ensure_future(
        cluster._read_channel(worker, reader))
    return worker, theirs


def say(end: socket.socket, *messages: object) -> None:
    end.sendall(b"".join(frame(encode(message)) for message in messages))


async def settle(worker: _Worker) -> None:
    """Let the reader consume what is already in its socket buffer."""
    for _ in range(50):
        await asyncio.sleep(0.005)
    assert not worker.reading.done() or worker.reading.exception() is None


async def ended(worker: _Worker) -> None:
    await asyncio.wait_for(asyncio.shield(worker.reading), PROMPT)
    assert worker.writer.is_closing()


class TestParentReadsAChannel:
    def test_ready_then_result_then_eof_is_a_clean_end(self):
        async def scenario():
            cluster = make_cluster()
            worker, end = await attach(cluster, CLIENTS)
            say(end, WorkerReady())
            await settle(worker)
            assert worker.ready and not worker.result
            say(end, result(rots=3))
            end.close()
            await ended(worker)
            assert worker.result and worker.gone is None
            assert cluster.metrics.rots_issued == 3
            assert cluster.first_failure() is None

        asyncio.run(scenario())

    def test_eof_before_ready_makes_the_worker_gone_by_name(self):
        async def scenario():
            cluster = make_cluster()
            worker, end = await attach(cluster, SERVER)
            end.close()
            await ended(worker)
            return cluster, worker

        cluster, worker = asyncio.run(scenario())
        assert not worker.ready
        assert str(worker.gone) == ("worker 0 (server [(0, 0)]) closed its "
                                    "control connection (exit code -9)")
        assert cluster.first_failure() is worker.gone

    def test_eof_after_ready_but_before_the_result_is_gone(self):
        async def scenario():
            cluster = make_cluster()
            worker, end = await attach(cluster, CLIENTS, exitcode=0)
            say(end, WorkerReady())
            await settle(worker)
            assert worker.gone is None
            end.close()
            await ended(worker)
            return cluster, worker

        cluster, worker = asyncio.run(scenario())
        assert worker.ready and not worker.result
        assert str(worker.gone) == (
            "worker 1 (clients [(0, 0)]) closed its control connection "
            "(exit code 0)")
        assert cluster.first_failure() is worker.gone

    def test_a_process_still_running_at_eof_is_named_so_within_a_bound(self):
        async def scenario():
            cluster = make_cluster()
            worker, end = await attach(cluster, SERVER, exitcode=None)
            started = time.perf_counter()
            end.close()
            await ended(worker)
            return worker, time.perf_counter() - started

        worker, took = asyncio.run(scenario())
        assert str(worker.gone).endswith("(still running)")
        assert took < PROMPT

    def test_worker_error_carries_its_traceback_and_ends_the_channel(self):
        trace = "Traceback (most recent call last):\nValueError: boom"

        async def scenario():
            cluster = make_cluster()
            worker, end = await attach(cluster, SERVER, exitcode=1)
            say(end, WorkerReady(), WorkerError(trace))
            # The worker's end stays open: the error alone ends the channel.
            await ended(worker)
            end.close()
            return cluster, worker

        cluster, worker = asyncio.run(scenario())
        assert str(worker.gone) == (
            f"worker 0 (server [(0, 0)]) failed (exit code 1)\n{trace}")
        assert cluster.first_failure() is worker.gone

    def test_observation_chunks_fold_into_the_checker_on_arrival(self):
        client = client_node_id(0, 0)
        puts = tuple(RecordedPut(key=f"k{index}", timestamp=index + 1,
                                 origin_dc=0, client=client,
                                 sequence=index + 1)
                     for index in range(3))
        rots = (RecordedRot(rot_id="r-1", client=client, sequence=4,
                            reads=(RecordedRead("k0", 1),)),)

        async def scenario():
            cluster = make_cluster()
            worker, end = await attach(cluster, CLIENTS)
            say(end, WorkerReady(), ObservationChunk(puts[:2], ()),
                ObservationChunk(puts[2:], rots))
            await settle(worker)
            assert cluster.chunks_ingested == 2
            assert (cluster.checker.recorded_puts,
                    cluster.checker.recorded_rots) == (3, 1)
            say(end, result())
            end.close()
            await ended(worker)
            assert worker.gone is None
            assert cluster.checker.check().ok

        asyncio.run(scenario())

    @pytest.mark.parametrize("sent, cause", [
        (frame(b"junk"), "WireFormatError"),
        (b"\x00\x00", "stream ended inside a frame length prefix"),
        (frame(encode(StartRun(1.0))), "unexpected control message StartRun"),
    ], ids=["garbage", "torn-prefix", "unexpected-message"])
    def test_a_broken_channel_is_a_lost_connection(self, sent, cause):
        async def scenario():
            cluster = make_cluster()
            worker, end = await attach(cluster, SERVER)
            end.sendall(sent)
            end.shutdown(socket.SHUT_WR)
            await ended(worker)
            end.close()
            return cluster, worker

        cluster, worker = asyncio.run(scenario())
        message = str(worker.gone)
        assert message.startswith(
            "worker 0 (server [(0, 0)]) lost its control connection: ")
        assert cause in message
        assert cluster.first_failure() is worker.gone

    def test_a_gone_worker_fails_every_parent_local_client_at_once(self):
        async def scenario():
            cluster = make_cluster()
            clients = [cluster.add_client(0, index) for index in (5, 6)]
            worker, end = await attach(cluster, SERVER)
            end.close()
            await ended(worker)
            return worker, clients

        worker, clients = asyncio.run(scenario())
        assert [client.failure for client in clients] == [worker.gone] * 2

    def test_a_worker_gone_while_stopping_fails_no_client(self):
        async def scenario():
            cluster = make_cluster()
            client = cluster.add_client(0, 5)
            worker, end = await attach(cluster, SERVER)
            cluster._closed = True  # as stop() sets it before its Shutdown
            end.close()
            await ended(worker)
            return worker, client

        worker, client = asyncio.run(scenario())
        # Still recorded: it never reported its result.
        assert worker.gone is not None
        assert client.failure is None

    def test_the_first_gone_worker_is_the_failure(self):
        async def scenario():
            cluster = make_cluster()
            first, first_end = await attach(cluster, SERVER)
            second, second_end = await attach(cluster, CLIENTS)
            first_end.close()
            await ended(first)
            second_end.close()
            await ended(second)
            return cluster, first, second

        cluster, first, second = asyncio.run(scenario())
        assert second.gone is not None and second.gone is not first.gone
        assert cluster.first_failure() is first.gone


class TestUntil:
    def test_returns_once_every_waited_worker_has_reached(self):
        async def scenario():
            cluster = make_cluster()
            server, server_end = await attach(cluster, SERVER)
            clients, clients_end = await attach(cluster, CLIENTS)
            loop = asyncio.get_running_loop()
            loop.call_later(0.05, say, server_end, WorkerReady())
            loop.call_later(0.1, say, clients_end, WorkerReady())
            await cluster._until(cluster._workers.values(),
                                 lambda worker: worker.ready, "WorkerReady",
                                 PROMPT)
            assert server.ready and clients.ready
            for end in (server_end, clients_end):
                end.close()

        asyncio.run(scenario())

    def test_any_gone_worker_fails_the_wait_with_its_own_error(self):
        async def scenario():
            cluster = make_cluster()
            server, server_end = await attach(cluster, SERVER)
            clients, clients_end = await attach(cluster, CLIENTS)
            say(clients_end, WorkerReady())
            asyncio.get_running_loop().call_later(0.05, server_end.close)
            started = time.perf_counter()
            # Only the client worker's result is waited on; the server
            # worker it needs is gone, so it never will.
            with pytest.raises(RuntimeBackendError) as raised:
                await cluster._until([clients], lambda worker: worker.result,
                                     "WorkerResult", 30.0)
            took = time.perf_counter() - started
            clients_end.close()
            return server, raised.value, took

        server, error, took = asyncio.run(scenario())
        assert error is server.gone
        assert took < PROMPT

    def test_a_worker_gone_after_reaching_does_not_fail_the_wait(self):
        async def scenario():
            cluster = make_cluster()
            worker, end = await attach(cluster, CLIENTS)
            say(end, WorkerReady(), result())
            end.close()
            await ended(worker)
            await cluster._until([worker], lambda worker: worker.result,
                                 "WorkerResult", PROMPT)
            assert worker.gone is None

        asyncio.run(scenario())

    def test_a_timeout_names_every_worker_still_waited_on(self):
        async def scenario():
            cluster = make_cluster()
            server, server_end = await attach(cluster, SERVER)
            clients, clients_end = await attach(cluster, CLIENTS)
            say(server_end, WorkerReady())
            with pytest.raises(RuntimeBackendError) as raised:
                await cluster._until(cluster._workers.values(),
                                     lambda worker: worker.ready,
                                     "WorkerReady", 0.1)
            for end in (server_end, clients_end):
                end.close()
            return cluster, raised.value

        cluster, error = asyncio.run(scenario())
        assert str(error) == ("timed out after 0.1s waiting for WorkerReady "
                              "from worker 1 (clients [(0, 0)])")
        assert cluster.first_failure() is error

    def test_send_skips_channels_that_are_closed(self):
        async def scenario():
            cluster = make_cluster()
            open_worker, open_end = await attach(cluster, SERVER)
            closed_worker, closed_end = await attach(cluster, CLIENTS)
            closed_worker.writer.close()
            cluster._send(cluster._workers.values(), Shutdown())
            await open_worker.writer.drain()
            open_end.settimeout(PROMPT)
            assert open_end.recv(64) == frame(encode(Shutdown()))
            for end in (open_end, closed_end):
                end.close()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Worker side: _worker_main served by a hand-held parent end
# --------------------------------------------------------------------------

class _Parent:
    """The parent's end of one in-process worker's channel."""

    def __init__(self, role: WorkerRole, listener: socket.socket,
                 peers: dict, record_history: bool = False) -> None:
        ours, theirs = socket.socketpair()
        self.listener = listener
        self.spec = WorkerSpec(
            protocol="contrarian", config=CONFIG, workload=WORKLOAD,
            role=role, listener=listener, channel=theirs, peers=peers,
            wall_epoch=time.time(), record_history=record_history)
        self._ours = ours
        self.worker: asyncio.Task = None

    async def spawn(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            sock=self._ours)
        self.worker = asyncio.ensure_future(_worker_main(self.spec))

    async def hear(self):
        payload = await asyncio.wait_for(read_frame(self.reader), 5.0)
        return None if payload is None else decode(payload)

    async def say(self, message: object) -> None:
        await write_frame(self.writer, encode(message))

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def listeners_and_peers(*roles: WorkerRole):
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in roles]
    peers = {}
    for role, listener in zip(roles, listeners):
        endpoint = listener.getsockname()[:2]
        peers.update((ServerAddr(dc, partition), endpoint)
                     for dc, partition in role.server_ids)
        peers.update((ClientAddr(client_node_id(dc, index)), endpoint)
                     for dc, index in role.client_ids)
    return listeners, peers


class TestWorkerMain:
    def test_ready_then_shutdown_reports_a_result_and_closes_everything(self):
        async def scenario():
            (listener,), peers = listeners_and_peers(SERVER)
            parent = _Parent(SERVER, listener, peers)
            await parent.spawn()
            assert isinstance(await parent.hear(), WorkerReady)
            # Ready means serving: the listener accepts.
            _reader, writer = await asyncio.open_connection(
                *listener.getsockname()[:2])
            writer.close()
            await parent.say(Shutdown())
            report = await parent.hear()
            assert isinstance(report, WorkerResult)
            assert report.rots_issued == report.puts_issued == 0
            assert await parent.hear() is None
            await asyncio.wait_for(parent.worker, PROMPT)
            await parent.close()
            assert listener.fileno() == -1
            assert parent.spec.channel.fileno() == -1

        asyncio.run(scenario())

    def test_a_slice_that_cannot_be_built_reports_its_traceback(self):
        async def scenario():
            lying = WorkerRole(0, ((0, 7),), ())
            (listener,), peers = listeners_and_peers(lying)
            parent = _Parent(lying, listener, peers)
            await parent.spawn()
            report = await parent.hear()
            with pytest.raises(ProtocolError, match="partition_index 7"):
                await asyncio.wait_for(parent.worker, PROMPT)
            assert await parent.hear() is None
            await parent.close()
            return listener, report

        listener, report = asyncio.run(scenario())
        assert isinstance(report, WorkerError)
        assert report.message.startswith("Traceback (most recent call last)")
        assert "partition_index 7 out of range" in report.message
        # Nobody served it, and it is closed all the same.
        assert listener.fileno() == -1

    def test_an_unexpected_message_is_reported_as_the_workers_error(self):
        async def scenario():
            (listener,), peers = listeners_and_peers(SERVER)
            parent = _Parent(SERVER, listener, peers)
            await parent.spawn()
            assert isinstance(await parent.hear(), WorkerReady)
            await parent.say(WorkerReady())
            report = await parent.hear()
            with pytest.raises(RuntimeBackendError,
                               match="unexpected control message"):
                await asyncio.wait_for(parent.worker, PROMPT)
            await parent.close()
            return listener, report

        listener, report = asyncio.run(scenario())
        assert isinstance(report, WorkerError)
        assert ("worker 0 received an unexpected control message WorkerReady"
                in report.message)
        assert listener.fileno() == -1

    def test_a_vanished_parent_ends_the_worker_quietly(self):
        async def scenario():
            (listener,), peers = listeners_and_peers(SERVER)
            parent = _Parent(SERVER, listener, peers)
            await parent.spawn()
            assert isinstance(await parent.hear(), WorkerReady)
            await parent.close()
            await asyncio.wait_for(parent.worker, PROMPT)
            return listener

        listener = asyncio.run(scenario())
        assert listener.fileno() == -1

    def test_a_run_ships_observations_then_its_result(self):
        async def scenario():
            listeners, peers = listeners_and_peers(SERVER, CLIENTS)
            server = _Parent(SERVER, listeners[0], peers)
            clients = _Parent(CLIENTS, listeners[1], peers,
                              record_history=True)
            for parent in (server, clients):
                await parent.spawn()
            for parent in (server, clients):
                assert isinstance(await parent.hear(), WorkerReady)
            await clients.say(StartRun(0.4))
            chunks = []
            while isinstance(message := await clients.hear(),
                             ObservationChunk):
                chunks.append(message)
            assert isinstance(message, WorkerResult)
            assert message.rots_issued + message.puts_issued > 0
            # Every recorded operation went ahead as a chunk.
            assert sum(len(chunk.puts) for chunk in chunks) > 0
            assert all(put.client == client_node_id(0, 0)
                       for chunk in chunks for put in chunk.puts)
            # A server worker reports its overheads at shutdown.
            await server.say(Shutdown())
            report = await server.hear()
            assert report.overhead.messages_sent > 0
            await clients.say(Shutdown())
            assert await clients.hear() is None
            for parent in (server, clients):
                await asyncio.wait_for(parent.worker, PROMPT)
                await parent.close()

        asyncio.run(scenario())

    def test_shutdown_ends_a_running_workload_at_once(self):
        async def scenario():
            listeners, peers = listeners_and_peers(SERVER, CLIENTS)
            server = _Parent(SERVER, listeners[0], peers)
            clients = _Parent(CLIENTS, listeners[1], peers)
            for parent in (server, clients):
                await parent.spawn()
            for parent in (server, clients):
                assert isinstance(await parent.hear(), WorkerReady)
            await clients.say(StartRun(30.0))
            await asyncio.sleep(0.2)
            started = time.perf_counter()
            await clients.say(Shutdown())
            report = await clients.hear()
            took = time.perf_counter() - started
            await asyncio.wait_for(clients.worker, PROMPT)
            await server.say(Shutdown())
            await server.hear()
            await asyncio.wait_for(server.worker, PROMPT)
            for parent in (server, clients):
                await parent.close()
            return report, took

        report, took = asyncio.run(scenario())
        assert isinstance(report, WorkerResult)
        assert report.rots_issued + report.puts_issued > 0
        assert took < PROMPT


# --------------------------------------------------------------------------
# The worker's data listener
# --------------------------------------------------------------------------

class TestWorkerListener:
    def test_without_a_listener_a_free_loopback_port_is_bound(self):
        async def scenario():
            first, second = TcpTransport(), TcpTransport()
            await first.start()
            await second.start()
            try:
                assert first.host == second.host == "127.0.0.1"
                assert 0 not in (first.port, second.port)
                assert first.port != second.port
            finally:
                await first.stop()
                await second.stop()

        asyncio.run(scenario())

    def test_stop_returns_while_a_peer_still_holds_its_connection(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            _reader, writer = await asyncio.open_connection(
                transport.host, transport.port)
            await asyncio.sleep(0.05)  # accepted and being served
            started = time.perf_counter()
            await asyncio.wait_for(transport.stop(), PROMPT)
            took = time.perf_counter() - started
            writer.close()
            return took

        assert asyncio.run(scenario()) < PROMPT

    def test_stop_twice_with_a_handed_over_listener(self):
        async def scenario():
            listener = socket.create_server(("127.0.0.1", 0))
            transport = TcpTransport(listener)
            await transport.start()
            await transport.stop()
            await transport.stop()
            assert listener.fileno() == -1
            assert transport.failure is None

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# read_frame at the edges of a stream
# --------------------------------------------------------------------------

def read_all(data: bytes) -> list:
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        payloads = []
        while (payload := await read_frame(reader)) is not None:
            payloads.append(payload)
        return payloads

    return asyncio.run(scenario())


class TestReadFrameEdges:
    def test_an_empty_payload_is_a_frame_not_an_end(self):
        assert read_all(frame(b"") * 2 + frame(b"x")) == [b"", b"", b"x"]

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_eof_inside_a_prefix_says_how_much_arrived(self, cut):
        with pytest.raises(WireFormatError,
                           match=rf"length prefix \({cut}/4 bytes\)"):
            read_all(frame(b"abc") + frame(b"defg")[:cut])

    def test_eof_inside_a_payload_says_how_much_arrived(self):
        with pytest.raises(WireFormatError,
                           match=r"frame payload \(2/5 bytes\)"):
            read_all(frame(b"hello")[:6])

    def test_a_prefix_at_the_limit_is_read_not_refused(self):
        prefix = MAX_FRAME_BYTES.to_bytes(4, "big")
        with pytest.raises(WireFormatError,
                           match=rf"payload \(3/{MAX_FRAME_BYTES} bytes\)"):
            read_all(prefix + b"abc")

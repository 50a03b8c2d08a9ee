"""The TCP hop's stream and frame: how bytes become delivered rows.

An inbound connection is an ``asyncio.Protocol`` that parses length-prefixed
batch frames out of whatever chunks the socket hands it; a batch frame is an
address table plus rows (:mod:`repro.wire.batch`).  These tests drive the
protocol object directly with hand-cut chunks, then the frame format at its
index boundary, then a pair of real transports for the sender's side of the
contract.
"""

import asyncio
import socket
import struct
import time

import pytest

from repro.core.common.kernel import ClientAddr, ServerAddr
from repro.core.common.messages import CcloPutReply, RemoteHeartbeat
from repro.errors import TransportError, WireFormatError
from repro.runtime import transport as transport_module
from repro.runtime.transport import TcpTransport, _InboundStream
from repro.wire.batch import (
    MAX_BATCH_MESSAGES,
    BatchWriter,
    Envelope,
    encode_batch,
)
from repro.wire.codec import decode
from repro.wire.framing import MAX_FRAME_BYTES, frame

SERVER, OTHER = ServerAddr(0, 0), ServerAddr(0, 1)
CLIENT = ClientAddr("c-0")


class _Sink:
    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def deliver(self, sender, message, trace=None) -> None:
        self.log.append((self.name, sender, message, trace))


class _Socket:
    """What the protocol asks of its ``asyncio.Transport``."""

    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


def _envelopes(count: int) -> list[Envelope]:
    return [Envelope(CLIENT if i % 3 else None, (SERVER, OTHER)[i % 2],
                     CcloPutReply(key=f"k{i % 5}", timestamp=i),
                     f"trace-{i}" if i % 4 else None)
            for i in range(count)]


def _stream(transport: TcpTransport) -> tuple[_InboundStream, _Socket]:
    stream, conn = _InboundStream(transport), _Socket()
    stream.connection_made(conn)
    return stream, conn


def _feed(chunks) -> tuple[TcpTransport, list, _InboundStream, _Socket]:
    """A receiving transport with both servers attached, fed ``chunks``."""
    log: list = []
    transport = TcpTransport()
    transport.register_local(SERVER, _Sink("server", log))
    transport.register_local(OTHER, _Sink("other", log))

    async def scenario():
        stream, conn = _stream(transport)
        for chunk in chunks:
            stream.data_received(chunk)
        return stream, conn

    stream, conn = asyncio.run(scenario())
    return transport, log, stream, conn


def _expected(envelopes) -> list:
    return [("server" if e.dest == SERVER else "other", e.sender, e.payload,
             e.trace) for e in envelopes]


class TestInboundStream:
    def test_any_chunking_delivers_the_same_rows_in_order(self):
        batches = [_envelopes(7), _envelopes(1), _envelopes(30)]
        stream = b"".join(frame(encode_batch(batch)) for batch in batches)
        expected = _expected([e for batch in batches for e in batch])
        first = len(frame(encode_batch(batches[0])))
        cuts = {
            "whole": [stream],
            "1-byte": [stream[i:i + 1] for i in range(len(stream))],
            "7-byte": [stream[i:i + 7] for i in range(0, len(stream), 7)],
            # Each chunk ends inside the next frame: its prefix, then its
            # payload.
            "straddling": [stream[:first + 2], stream[first + 2:first + 9],
                           stream[first + 9:-3], stream[-3:]],
        }
        for name, chunks in cuts.items():
            transport, log, stream_, conn = _feed(chunks)
            assert log == expected, name
            assert transport.failure is None, name
            assert not stream_.buffer and not conn.closed, name

    def test_an_oversize_length_prefix_fails_before_anything_is_buffered(self):
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        for chunks in ([prefix + b"x" * 64], [prefix[:2], prefix[2:]]):
            transport, log, stream, conn = _feed(chunks)
            assert isinstance(transport.failure, WireFormatError)
            assert "exceeds" in str(transport.failure)
            assert not stream.buffer
            assert conn.closed and log == []

    def test_eof_inside_a_frame_is_an_error_and_at_a_boundary_is_not(self):
        whole = frame(encode_batch(_envelopes(3)))
        for cut, where in ((2, "length prefix (2/4 bytes)"),
                           (9, f"payload (5/{len(whole) - 4} bytes)")):
            transport, log, stream, _ = _feed([whole, whole[:cut]])
            assert log == _expected(_envelopes(3))
            stream.eof_received()
            assert isinstance(transport.failure, WireFormatError)
            assert f"stream ended inside a frame {where}" in str(
                transport.failure)
        transport, _, stream, conn = _feed([whole, whole])
        stream.eof_received()
        assert transport.failure is None and not conn.closed

    def test_a_frame_for_a_node_that_is_not_here_fails_the_stream(self):
        stray = Envelope(CLIENT, ServerAddr(3, 3), RemoteHeartbeat(0, 1))
        transport, _, _, conn = _feed([frame(encode_batch([stray]))])
        assert isinstance(transport.failure, TransportError)
        assert "not attached to this transport" in str(transport.failure)
        assert conn.closed


def _twin(address):
    """An address equal to ``address`` but another object (construction
    interns, so it is built through the slots)."""
    twin = object.__new__(type(address))
    for name in type(address).__slots__:
        getattr(type(address), name).__set__(twin, getattr(address, name))
    assert twin == address and twin is not address
    return twin


class TestAddressTable:
    def test_more_addresses_than_one_index_byte_round_trip(self):
        envelopes = [Envelope(ClientAddr(f"wide-{i}"), ServerAddr(i, 0),
                              RemoteHeartbeat(0, i)) for i in range(300)]
        assert list(decode(encode_batch(envelopes)).envelopes) == envelopes

    def test_the_u16_index_reaches_every_address_of_a_full_batch(self):
        count = MAX_BATCH_MESSAGES
        senders = [ClientAddr(f"s{i}") for i in range(count)]
        dests = [ClientAddr(f"d{i}") for i in range(count)]
        heartbeat = RemoteHeartbeat(0, 1)
        writer = BatchWriter()
        for sender, dest in zip(senders, dests):
            writer.add(sender, dest, heartbeat)
        assert len(writer.addresses) == 2 * count == 1 << 16
        decoded = decode(bytes(writer.framed()[4:])).envelopes
        assert len(decoded) == count
        assert decoded[-1] == Envelope(senders[-1], dests[-1], heartbeat)
        # A 65,537th address has no index: the row is refused, typed.
        with pytest.raises(WireFormatError, match="cannot encode"):
            writer.add(ClientAddr("one-too-many"), dests[0], heartbeat)
        assert writer.count == count

    def test_equal_but_distinct_addresses_both_deliver(self):
        twin_server, twin_client = _twin(SERVER), _twin(CLIENT)
        writer = BatchWriter()
        writer.add(CLIENT, SERVER, RemoteHeartbeat(0, 1))
        writer.add(twin_client, twin_server, RemoteHeartbeat(0, 2))
        # Keyed by identity: each object takes its own table entry.
        assert writer.addresses == [CLIENT, SERVER, twin_client,
                                    twin_server]
        transport, log, _, _ = _feed([bytes(writer.framed())])
        assert transport.failure is None
        assert log == [("server", CLIENT, RemoteHeartbeat(0, 1), None),
                       ("server", CLIENT, RemoteHeartbeat(0, 2), None)]


async def _pair():
    """``sender`` -> ``receiver``, with a sink at ``SERVER`` on the latter."""
    receiver, sender = TcpTransport(), TcpTransport()
    await receiver.start()
    await sender.start()
    log: list = []
    receiver.register_local(SERVER, _Sink("server", log))
    sender.set_peers({SERVER: ("127.0.0.1", receiver.port)})
    return receiver, sender, log


async def _until(condition, seconds: float = 5.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    while not condition() and loop.time() < deadline:
        await asyncio.sleep(0.005)


class TestSenderSide:
    def test_an_unencodable_payload_is_a_typed_error_of_the_send(self):
        async def scenario():
            receiver, sender, log = await _pair()
            good = CcloPutReply(key="k", timestamp=1)
            sender.send(CLIENT, SERVER, good)
            for bad in (CcloPutReply(key=5, timestamp=1), object(),
                        (good, object())):
                with pytest.raises(WireFormatError, match="cannot encode"):
                    sender.send(CLIENT, SERVER, bad)
            sender.send(CLIENT, SERVER, good, "t")
            await _until(lambda: len(log) == 2)
            # The refused rows left nothing behind in the frame.
            assert log == [("server", CLIENT, good, None),
                           ("server", CLIENT, good, "t")]
            await sender.stop()
            await receiver.stop()
            assert sender.failure is None and receiver.failure is None

        asyncio.run(scenario())

    def test_a_lost_peer_fails_the_next_send(self):
        async def scenario():
            receiver, sender, log = await _pair()
            sender.send(CLIENT, SERVER, RemoteHeartbeat(0, 1))
            await _until(lambda: log)
            await receiver.stop()
            link = sender._links[("127.0.0.1", receiver.port)]
            await _until(lambda: link.error is not None)
            with pytest.raises(TransportError, match="is down"):
                sender.send(CLIENT, SERVER, RemoteHeartbeat(0, 2))
            await sender.stop()
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(scenario())

    def test_frames_sent_before_the_connection_is_up_go_out_in_order(self):
        async def scenario():
            receiver, sender, log = await _pair()
            beats = [RemoteHeartbeat(0, i) for i in range(10)]
            for beat in beats:
                sender.send(CLIENT, SERVER, beat)
                sender._flush(sender._links[("127.0.0.1", receiver.port)])
            await _until(lambda: len(log) == len(beats))
            assert [message for _, _, message, _ in log] == beats
            await sender.stop()
            await receiver.stop()

        asyncio.run(scenario())

    def test_stop_is_bounded_when_the_peer_reads_nothing(self, monkeypatch):
        monkeypatch.setattr(transport_module, "FLUSH_TIMEOUT_SECONDS", 0.2)

        async def scenario():
            # A peer that accepts in the kernel and never reads: once its
            # tiny receive buffer and ours are full, the frames stay queued.
            deaf = socket.create_server(("127.0.0.1", 0))
            deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sender = TcpTransport()
            sender.set_peers({SERVER: deaf.getsockname()[:2]})
            try:
                for i in range(8):
                    sender.send(CLIENT, SERVER, CcloPutReply("x" * (1 << 20), i))
                    sender._flush(sender._links[deaf.getsockname()[:2]])
                await asyncio.sleep(0.05)
                started = time.perf_counter()
                await sender.stop()
                assert time.perf_counter() - started < 1.0
            finally:
                deaf.close()
            assert sender.failure is None
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(scenario())

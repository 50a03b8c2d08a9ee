"""Batch frame tests: row-wise coalescing, flush policies, edge cases.

Covers the wire side (encode_batch/decode round trips, empty and single
batches, oversize rejection, count mismatches, torn-frame reassembly through
FrameDecoder) and the transport side (threshold and idle flushes, graceful
stop, batch trace events) without spawning any processes.
"""

import asyncio

import pytest

from repro.core.common.kernel import ServerAddr
from repro.core.common.messages import (
    CcloPutReply,
    RemoteHeartbeat,
    ReplicateUpdate,
)
from repro.errors import ConfigurationError, WireFormatError
from repro.runtime.transport import Envelope, TcpTransport
from repro.wire.batch import (
    DEFAULT_FLUSH_POLICY,
    BatchFrame,
    FlushPolicy,
    MAX_BATCH_MESSAGES,
    encode_batch,
)
from repro.wire.codec import FORMAT_BATCH, MAGIC, WIRE_VERSION, decode, encode
from repro.wire.framing import FrameDecoder, frame
from repro.wire.intern import clear_interned, intern_key

DEST = ServerAddr(1, 0)


def _replicate(index: int, key: str = "hot-key") -> Envelope:
    return Envelope(
        sender=ServerAddr(0, 0), dest=DEST,
        payload=ReplicateUpdate(
            key=key, timestamp=1000 + index, origin_dc=0, value_size=64,
            dependency_vector=(index, 0), dependencies=(),
            writer="c-0", sequence=index),
        trace=f"c-0#{index}")


def _heartbeat(index: int) -> Envelope:
    return Envelope(sender=ServerAddr(0, 0), dest=DEST,
                    payload=RemoteHeartbeat(origin_dc=0,
                                            timestamp=2000 + index))


class TestBatchCodec:
    def test_homogeneous_batch_round_trips(self):
        envelopes = [_replicate(i) for i in range(16)]
        decoded = decode(encode_batch(envelopes))
        assert isinstance(decoded, BatchFrame)
        assert len(decoded) == 16
        assert list(decoded.envelopes) == envelopes

    def test_heterogeneous_batch_round_trips(self):
        envelopes = []
        for i in range(6):
            envelopes.append(_replicate(i))
            envelopes.append(_heartbeat(i))
        decoded = decode(encode_batch(envelopes))
        assert list(decoded.envelopes) == envelopes

    def test_a_batch_is_its_envelopes_row_by_row(self):
        # One layout: a row of a batch frame is byte for byte what encode()
        # writes for that envelope after the 3-byte frame header.
        envelopes = ([_replicate(i) for i in range(4)] + [_heartbeat(0)]
                     + [_replicate(i, key=f"k{i}") for i in range(9)])
        payload = encode_batch(envelopes)
        assert payload[:3] == bytes((MAGIC, WIRE_VERSION, FORMAT_BATCH))
        assert payload[3:7] == len(envelopes).to_bytes(4, "big")
        assert payload[7:] == b"".join(encode(envelope)[3:]
                                       for envelope in envelopes)
        assert list(decode(payload).envelopes) == envelopes

    def test_empty_batch_round_trips(self):
        decoded = decode(encode_batch([]))
        assert isinstance(decoded, BatchFrame)
        assert decoded.envelopes == ()

    def test_single_message_batch_round_trips(self):
        decoded = decode(encode_batch([_replicate(0)]))
        assert list(decoded.envelopes) == [_replicate(0)]

    def test_oversize_batch_rejected(self):
        one = _replicate(0)
        with pytest.raises(WireFormatError, match="limit"):
            encode_batch([one] * (MAX_BATCH_MESSAGES + 1))

    def test_announced_count_must_match(self):
        payload = bytearray(encode_batch([_replicate(i) for i in range(5)]))
        payload[3:7] = (6).to_bytes(4, "big")
        with pytest.raises(WireFormatError, match="malformed|truncated"):
            decode(bytes(payload))
        payload[3:7] = (4).to_bytes(4, "big")
        with pytest.raises(WireFormatError, match="trailing"):
            decode(bytes(payload))
        payload[3:7] = (2 ** 32 - 1).to_bytes(4, "big")
        with pytest.raises(WireFormatError, match="more than the bytes"):
            decode(bytes(payload))

    def test_trailing_bytes_rejected(self):
        payload = encode_batch([_replicate(i) for i in range(5)]) + b"\x00"
        with pytest.raises(WireFormatError, match="trailing"):
            decode(payload)

    def test_truncated_batch_rejected(self):
        payload = encode_batch([_replicate(i) for i in range(5)])
        for cut in range(1, len(payload) - 3):
            with pytest.raises(WireFormatError):
                decode(payload[:len(payload) - cut])

    def test_a_row_that_is_not_an_envelope_still_decodes_as_a_value(self):
        # The frame is a run of tagged values; that they are envelopes is
        # the transport's contract, checked there (_deliver_envelope).
        rows = [_replicate(0), CcloPutReply(key="k", timestamp=1), 7, None]
        assert list(decode(encode_batch(rows)).envelopes) == rows

    def test_decoded_keys_are_interned(self):
        clear_interned()
        try:
            for payload in (encode_batch([_replicate(i) for i in range(8)]),
                            encode_batch([_replicate(0)])):
                decoded = decode(payload).envelopes
                keys = {id(envelope.payload.key) for envelope in decoded}
                assert len(keys) == 1
                assert decoded[0].payload.key is intern_key("hot-key")
                assert decoded[0].payload.writer is intern_key("c-0")
        finally:
            clear_interned()

    def test_decoded_addresses_are_shared(self):
        decoded = decode(encode_batch([_replicate(i) for i in range(8)]))
        assert len({id(envelope.dest) for envelope in decoded.envelopes}) == 1
        assert len({id(envelope.sender)
                    for envelope in decoded.envelopes}) == 1
        assert decoded.envelopes[0].dest == DEST

    def test_torn_frame_reassembles_through_frame_decoder(self):
        envelopes = [_replicate(i) for i in range(12)]
        stream = frame(encode_batch(envelopes))
        decoder = FrameDecoder()
        payloads = []
        for start in range(0, len(stream), 7):
            payloads.extend(decoder.feed(stream[start:start + 7]))
        assert len(payloads) == 1
        assert list(decode(payloads[0]).envelopes) == envelopes


class TestFlushPolicy:
    def test_defaults_and_validation(self):
        assert DEFAULT_FLUSH_POLICY.max_messages == 128
        with pytest.raises(ValueError, match="max_messages"):
            FlushPolicy(max_messages=0)
        with pytest.raises(ValueError, match="max_messages"):
            FlushPolicy(max_messages=MAX_BATCH_MESSAGES + 1)
        with pytest.raises(ValueError, match="max_bytes"):
            FlushPolicy(max_bytes=0)

    def test_tcp_batch_keyword_is_thresholds_only(self):
        assert TcpTransport().flush_policy is DEFAULT_FLUSH_POLICY
        assert TcpTransport(batch=True).flush_policy is DEFAULT_FLUSH_POLICY
        policy = FlushPolicy(max_messages=4)
        assert TcpTransport(batch=policy).flush_policy is policy
        for off in (False, None, 128):
            with pytest.raises(ConfigurationError, match="unbatched"):
                TcpTransport(batch=off)


class _SinkNode:
    def __init__(self) -> None:
        self.received: list[tuple[object, object]] = []
        self.event = asyncio.Event()

    def deliver(self, sender, message, trace=None) -> None:
        self.received.append((sender, message))
        self.event.set()


class _RecordingTracer:
    def __init__(self) -> None:
        self.events: list[tuple[str, tuple]] = []

    def emit(self, node, kind, *, trace=None, name="", dc=-1, data=()):
        self.events.append((kind, data))


class TestTcpBatching:
    def test_batched_cross_transport_delivery(self):
        async def scenario():
            a = TcpTransport()
            b = TcpTransport(batch=FlushPolicy(max_messages=8))
            tracer = _RecordingTracer()
            b.tracer = tracer
            await a.start()
            await b.start()
            node = _SinkNode()
            a.register_local(DEST, node)
            peers = {DEST: ("127.0.0.1", a.port)}
            b.set_peers(peers)

            sent = [_replicate(i, key=f"k{i % 3}") for i in range(20)]
            for envelope in sent:
                b.send(envelope.sender, DEST, envelope.payload,
                       envelope.trace)
            # 20 sends with max_messages=8: two threshold flushes plus an
            # idle flush of the remaining 4.
            for _ in range(500):
                if len(node.received) >= 20:
                    break
                await asyncio.sleep(0.01)
            assert [message for _sender, message in node.received] == [
                envelope.payload for envelope in sent]
            flushes = [data for kind, data in tracer.events
                       if kind == "batch_flush"]
            assert [dict(data)["count"] for data in flushes] == [8, 8, 4]
            await b.stop()
            await a.stop()
            assert a.failure is None
            assert b.failure is None

        asyncio.run(scenario())

    def test_default_constructor_coalesces_one_loop_turn(self):
        async def scenario():
            a, b = TcpTransport(), TcpTransport()
            send_tracer, recv_tracer = _RecordingTracer(), _RecordingTracer()
            b.tracer, a.tracer = send_tracer, recv_tracer
            await a.start()
            await b.start()
            node = _SinkNode()
            a.register_local(DEST, node)
            b.set_peers({DEST: ("127.0.0.1", a.port)})
            for i in range(7):
                b.send(None, DEST, _replicate(i).payload)
            for _ in range(500):
                if len(node.received) >= 7:
                    break
                await asyncio.sleep(0.01)
            assert len(node.received) == 7
            # Seven sends in one loop turn: one frame out, one frame in.
            assert send_tracer.events == [
                ("batch_flush", (("count", 7),
                                 ("peer", f"127.0.0.1:{a.port}")))]
            assert recv_tracer.events == [("batch_recv", (("count", 7),))]
            await b.stop()
            await a.stop()

        asyncio.run(scenario())

    def test_fifo_across_threshold_then_idle_flush(self):
        async def scenario():
            policy = FlushPolicy(max_messages=5)
            a, b = TcpTransport(), TcpTransport(batch=policy)
            tracer = _RecordingTracer()
            a.tracer = tracer
            await a.start()
            await b.start()
            node = _SinkNode()
            a.register_local(DEST, node)
            b.set_peers({DEST: ("127.0.0.1", a.port)})
            total = policy.max_messages + 3
            sent = [_replicate(i).payload for i in range(total)]
            for payload in sent:
                b.send(None, DEST, payload)
            for _ in range(500):
                if len(node.received) >= total:
                    break
                await asyncio.sleep(0.01)
            assert [message for _sender, message in node.received] == sent
            # Two frames on the wire: the threshold flush inside send, then
            # the idle flush.
            assert [dict(data)["count"] for _kind, data in tracer.events] == [
                policy.max_messages, 3]
            await b.stop()
            await a.stop()

        asyncio.run(scenario())

    def test_pending_batch_flushed_on_stop(self):
        async def scenario():
            a = TcpTransport()
            b = TcpTransport(batch=True)  # thresholds far above 5 messages
            await a.start()
            await b.start()
            node = _SinkNode()
            a.register_local(DEST, node)
            b.set_peers({DEST: ("127.0.0.1", a.port)})
            for i in range(5):
                b.send(None, DEST, _replicate(i).payload)
            await b.stop()
            for _ in range(500):
                if len(node.received) >= 5:
                    break
                await asyncio.sleep(0.01)
            assert len(node.received) == 5
            await a.stop()
            assert a.failure is None

        asyncio.run(scenario())

    def test_single_pending_envelope_goes_out_as_a_batch_of_one(self):
        async def scenario():
            a = TcpTransport()
            b = TcpTransport(batch=True)
            recv_tracer = _RecordingTracer()
            a.tracer = recv_tracer
            await a.start()
            await b.start()
            node = _SinkNode()
            a.register_local(DEST, node)
            b.set_peers({DEST: ("127.0.0.1", a.port)})
            b.send(None, DEST, _replicate(0).payload)
            await asyncio.wait_for(node.event.wait(), 5.0)
            # One frame kind on the data plane: a flush of one envelope is a
            # batch frame of one.
            assert recv_tracer.events == [("batch_recv", (("count", 1),))]
            await b.stop()
            await a.stop()

        asyncio.run(scenario())

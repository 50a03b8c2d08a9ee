"""Wire-codec tests: round trips for every message type, error paths.

The codec satellite of the transport-layer issue: every registered message
type encodes/decodes to an equal value (parametrized over all three
protocols' message sets, in both the binary and the JSON debug format), and
malformed/unknown-version frames raise the typed
:class:`~repro.errors.WireFormatError` from :mod:`repro.errors`.
"""

import dataclasses

import pytest

from repro.core.common.messages import (
    PROTOCOL_MESSAGES,
    WIRE_MESSAGES,
    CcloPutReply,
    CcloPutRequest,
    CcloReplicateUpdate,
    OneRoundReadReply,
    OneRoundReadRequest,
    ReadersCheckReply,
    ReadersCheckRequest,
    ReadResult,
    RemoteHeartbeat,
    ReplicateUpdate,
    RotCoordinatorRequest,
    RotProxyRead,
    RotReadRequest,
    RotSnapshotReply,
    RotValueReply,
    StabilizationMessage,
    VectorPutReply,
    VectorPutRequest,
)
from repro.errors import WireFormatError
from repro.wire import (
    FrameDecoder,
    FrameDecoder as _FrameDecoder,  # noqa: F401 - re-export sanity
    MAX_FRAME_BYTES,
    decode,
    encode,
    frame,
    register_wire_type,
)
from repro.wire.codec import MAGIC, WIRE_VERSION

_RESULTS = (ReadResult(key="k:0", timestamp=7, origin_dc=0, value_size=8),
            ReadResult(key="k:1", timestamp=None, origin_dc=1, value_size=16))

#: One representative, fully populated instance per wire message type.
SAMPLES = {
    ReadResult: _RESULTS[0],
    VectorPutRequest: VectorPutRequest(
        key="k:0", value_size=64, client_vector=(3, 0), client_id="c-0",
        sequence=9, dependencies=(("k:1", 5), ("k:2", 2))),
    VectorPutReply: VectorPutReply(key="k:0", timestamp=11, gss=(4, 2)),
    RotCoordinatorRequest: RotCoordinatorRequest(
        rot_id="c-0#4", keys=("k:0", "k:1"), client_local_ts=8,
        client_gss=(3, 1), client_id="c-0", two_round=True),
    RotSnapshotReply: RotSnapshotReply(rot_id="c-0#4", snapshot=(5, 5)),
    RotProxyRead: RotProxyRead(rot_id="c-0#4", keys=("k:0",),
                               snapshot=(5, 5), client_id="c-0"),
    RotReadRequest: RotReadRequest(rot_id="c-0#4", keys=("k:1",),
                                   snapshot=(6, 3), client_id="c-0"),
    RotValueReply: RotValueReply(rot_id="c-0#4", results=_RESULTS,
                                 snapshot=(6, 3), gss=(4, 2)),
    RemoteHeartbeat: RemoteHeartbeat(origin_dc=1, timestamp=123456789),
    StabilizationMessage: StabilizationMessage(
        partition_index=2, version_vector=(9, 0)),
    ReplicateUpdate: ReplicateUpdate(
        key="k:0", timestamp=10, origin_dc=0, value_size=64,
        dependency_vector=(7, 1), dependencies=(("k:2", 3),),
        writer="c-0", sequence=4),
    OneRoundReadRequest: OneRoundReadRequest(
        rot_id="c-1#2", keys=("k:0", "k:3"), client_id="c-1"),
    OneRoundReadReply: OneRoundReadReply(rot_id="c-1#2", results=_RESULTS),
    CcloPutRequest: CcloPutRequest(
        key="k:0", value_size=8, dependencies=(("k:1", 5, 0), ("k:2", 1, 1)),
        dependency_partitions=(1, 3), client_id="c-1", sequence=6),
    CcloPutReply: CcloPutReply(key="k:0", timestamp=12),
    ReadersCheckRequest: ReadersCheckRequest(
        check_id="chk-1", dependencies=(("k:1", 5, 0),), put_key="k:0",
        put_timestamp=12, require_present=True),
    ReadersCheckReply: ReadersCheckReply(
        check_id="chk-1", old_readers=(("c-1#1", 4), ("c-2#7", 9))),
    CcloReplicateUpdate: CcloReplicateUpdate(
        key="k:0", timestamp=12, origin_dc=0, value_size=8,
        dependencies=(("k:1", 5, 0),), writer="c-1", sequence=6,
        old_readers=(("c-1#1", 4),)),
}


class TestRoundTrips:
    def test_every_wire_message_has_a_sample(self):
        assert set(SAMPLES) == set(WIRE_MESSAGES)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_MESSAGES))
    @pytest.mark.parametrize("format", ["binary", "json"])
    def test_protocol_message_set_round_trips(self, protocol, format):
        for message_type in PROTOCOL_MESSAGES[protocol]:
            original = SAMPLES[message_type]
            decoded = decode(encode(original, format=format))
            assert decoded == original
            assert type(decoded) is message_type

    @pytest.mark.parametrize("format", ["binary", "json"])
    def test_plain_values_round_trip(self, format):
        for value in (None, True, False, 0, 127, -1, -32, 128, 2 ** 40,
                      -(2 ** 40), 2 ** 70, 3.25, "", "k" * 500, b"\x00\xff",
                      (), (1, (2, 3)), {"a": 1, "b": (2.5, None)}):
            assert decode(encode(value, format=format)) == value

    def test_sequences_decode_as_tuples(self):
        decoded = decode(encode([1, [2, 3]]))
        assert decoded == (1, (2, 3))
        assert type(decoded) is tuple

    def test_binary_is_compact(self):
        message = SAMPLES[RotValueReply]
        assert len(encode(message)) < len(encode(message, format="json"))
        # Far below the dataclass's modelled wire size + header.
        assert len(encode(message)) < 4 * message.size_bytes()


class TestErrorPaths:
    def test_empty_and_short_frames(self):
        for data in (b"", b"\xa7", bytes((MAGIC, WIRE_VERSION))):
            with pytest.raises(WireFormatError, match="too short"):
                decode(data)

    def test_bad_magic(self):
        with pytest.raises(WireFormatError, match="magic"):
            decode(bytes((0x00, WIRE_VERSION, 0x01)) + b"\x01")

    def test_unknown_version(self):
        payload = bytearray(encode(SAMPLES[CcloPutReply]))
        payload[1] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            decode(bytes(payload))

    def test_unknown_format_tag(self):
        with pytest.raises(WireFormatError, match="format"):
            decode(bytes((MAGIC, WIRE_VERSION, 0x7F)) + b"\x01")

    def test_truncated_binary_frame(self):
        payload = encode(SAMPLES[VectorPutRequest])
        with pytest.raises(WireFormatError, match="truncated|ran out"):
            decode(payload[:-3])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireFormatError, match="trailing"):
            decode(encode(SAMPLES[CcloPutReply]) + b"\x00")

    def test_unknown_struct_id(self):
        import struct
        body = bytes((MAGIC, WIRE_VERSION, 0x01, 0xD8)) \
            + struct.pack(">H", 9999) + bytes((0x90,))
        with pytest.raises(WireFormatError, match="unknown wire type id"):
            decode(body)

    def test_malformed_json_frame(self):
        body = bytes((MAGIC, WIRE_VERSION, 0x02)) + b"{not json"
        with pytest.raises(WireFormatError, match="JSON"):
            decode(body)

    def test_unknown_json_type_name(self):
        body = bytes((MAGIC, WIRE_VERSION, 0x02)) \
            + b'{"__wire__": "NoSuchType", "fields": {}}'
        with pytest.raises(WireFormatError, match="NoSuchType"):
            decode(body)

    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class NotOnTheWire:
            x: int

        for format in ("binary", "json"):
            with pytest.raises(WireFormatError, match="not a registered"):
                encode(NotOnTheWire(x=1), format=format)

    def test_registering_non_dataclass_rejected(self):
        with pytest.raises(WireFormatError, match="dataclass"):
            register_wire_type(int)

    def test_struct_field_count_mismatch(self):
        import struct
        type_id = 14  # CcloPutReply: (key, timestamp)
        assert WIRE_MESSAGES[type_id] is CcloPutReply
        body = bytes((MAGIC, WIRE_VERSION, 0x01, 0xD8)) \
            + struct.pack(">H", type_id) + bytes((0x91, 0x01))
        with pytest.raises(WireFormatError, match="fields"):
            decode(body)


class TestFraming:
    def test_incremental_feed_reassembles_frames(self):
        payloads = [encode(SAMPLES[CcloPutReply]),
                    encode(SAMPLES[RotValueReply], format="json")]
        stream = b"".join(frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), 3):  # drip-feed 3 bytes at a time
            out.extend(decoder.feed(stream[i:i + 3]))
        assert [decode(p) for p in out] == [decode(p) for p in payloads]
        assert decoder.pending_bytes == 0

    def test_oversized_length_prefix_rejected(self):
        import struct
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="limit"):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))


class TestWireVersion:
    """One wire version: every peer of a run is started from the same tree.

    The version byte stays in the header so that a frame from anything else
    is rejected loudly instead of mis-parsed, and a struct must carry exactly
    the fields its class declares.
    """

    def test_version_constants(self):
        from repro.wire.codec import SUPPORTED_WIRE_VERSIONS
        assert WIRE_VERSION == 3
        assert SUPPORTED_WIRE_VERSIONS == (WIRE_VERSION,)

    def test_unsupported_versions_rejected(self):
        from repro.runtime.transport import Envelope
        from repro.core.common.kernel import ServerAddr
        from repro.wire.batch import encode_batch
        batch = encode_batch([Envelope(sender=None, dest=ServerAddr(0, 0),
                                       payload=SAMPLES[CcloPutReply])] * 3)
        frames = [encode(SAMPLES[CcloPutReply], format="binary"),
                  encode(SAMPLES[CcloPutReply], format="json"), batch]
        for version in (0, 1, 2, 4, 99):
            for frame in frames:
                payload = bytearray(frame)
                assert payload[1] == WIRE_VERSION
                payload[1] = version
                with pytest.raises(WireFormatError, match="version"):
                    decode(bytes(payload))

    def test_envelope_trace_round_trips(self):
        from repro.runtime.transport import Envelope
        from repro.core.common.kernel import ClientAddr, ServerAddr
        envelope = Envelope(sender=ClientAddr(client_id="c-0"),
                            dest=ServerAddr(dc=1, partition=0),
                            payload=SAMPLES[CcloPutReply],
                            trace="c-0#7")
        for format in ("binary", "json"):
            assert decode(encode(envelope, format=format)) == envelope

    @staticmethod
    def _struct_frame(instance, values):
        """A binary frame of ``instance``'s type carrying ``values`` as its
        field array, spliced from individually encoded values."""
        import struct
        type_id = struct.unpack(">H", encode(instance)[4:6])[0]
        body = bytes((MAGIC, WIRE_VERSION, 0x01, 0xD8)) \
            + struct.pack(">H", type_id) + bytes((0x90 | len(values),))
        for value in values:
            body += encode(value)[3:]  # strip the standalone 3-byte header
        return body

    def test_truncated_structs_rejected(self):
        # Fields with dataclass defaults are no exception: a short field
        # array is a malformed frame, not an older peer.
        from repro.runtime.transport import Envelope
        from repro.core.common.kernel import ClientAddr
        dest = ClientAddr(client_id="c-1")
        envelope = Envelope(sender=None, dest=dest, payload=7, trace="x")
        assert decode(self._struct_frame(
            envelope, (None, dest, 7, "x"))) == envelope
        with pytest.raises(WireFormatError, match="expected 4"):
            decode(self._struct_frame(envelope, (None, dest, 7)))
        with pytest.raises(WireFormatError, match="expected 2"):
            decode(self._struct_frame(SAMPLES[CcloPutReply], ("k",)))

    def test_excess_struct_fields_rejected(self):
        with pytest.raises(WireFormatError, match="expected 2"):
            decode(self._struct_frame(SAMPLES[CcloPutReply], ("k", 1, 2)))

    def test_json_struct_with_absent_fields_rejected(self):
        import json
        document = {"__wire__": "TraceEvent",
                    "fields": {"seq": 4, "ts": 1.25, "node": "client-0",
                               "kind": "op_start"}}
        body = bytes((MAGIC, WIRE_VERSION, 0x02)) \
            + json.dumps(document).encode()
        with pytest.raises(WireFormatError, match="field mismatch"):
            decode(body)

    def test_trace_event_round_trips(self):
        from repro.obs.events import TraceEvent
        event = TraceEvent(seq=9, ts=0.5, node="server-1-0",
                           kind="replicate_apply", trace="c-0#3",
                           name="k:4", dc=1, data=(("key", "k:4"),))
        for format in ("binary", "json"):
            assert decode(encode(event, format=format)) == event

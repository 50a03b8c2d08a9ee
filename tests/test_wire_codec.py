"""Wire-codec tests: plan-derived round trips, type fidelity, error paths.

Every registered wire type is exercised through samples and strategies built
from the codec's own field plan (``wire_support``): ``decode(encode(x)) == x``
with identical types in the binary, batch and JSON formats, binary and JSON
decode to equal objects, a value contradicting its annotation fails at
encode, and malformed or unknown-version frames raise the typed
:class:`~repro.errors.WireFormatError`.
"""

import dataclasses
import json
import struct
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from repro.core.common.messages import (
    PROTOCOL_MESSAGES,
    WIRE_MESSAGES,
    CcloPutReply,
    ReplicateUpdate,
    RotValueReply,
    VectorPutRequest,
)
from repro.errors import WireFormatError
from repro.wire import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode,
    encode,
    frame,
    register_wire_type,
)
from repro.wire.batch import encode_batch
from repro.wire.codec import (
    MAGIC,
    SUPPORTED_WIRE_VERSIONS,
    WIRE_VERSION,
    FieldKind,
    field_plan,
)
from wire_support import (
    EVERY_TYPE,
    PLAIN,
    WIRE_SETTINGS,
    WIRE_TYPES,
    instances,
    same,
    sample,
)


#: Per field kind: values the annotation rules out, which must fail at
#: encode instead of being coerced or mis-encoded.
_CONTRADICTIONS = {
    "int": ("7", 2 ** 63, -(2 ** 63) - 1, 1.5),
    "bool": ("yes", 1, 0),
    "float": ("1.5", (1.5,)),
    "str": (7, b"raw", ("s",)),
    "bytes": ("text", 7, (1, 2)),
    "ints": (7, ("a",), (2 ** 63,), (1.5,)),
    "floats": (7, ("a",)),
    "strs": (7, (7,), (b"raw",)),
    "rows": (7, ((1, 2, 3),), (("k",),), (("k", "v", "w"),)),
    "structs": (7, (7,), ("x",)),
}


@dataclasses.dataclass(frozen=True)
class _EveryKind:
    """A type registered only here: the planner must lay out a class it has
    never seen from its annotations alone, optional kinds included."""

    flag: Optional[bool]
    ratio: Optional[float]
    blob: Optional[bytes]
    names: Optional[tuple[str, ...]]
    ratios: Optional[tuple[float, ...]]
    anything: object
    untyped: list


register_wire_type(_EveryKind)


class TestRoundTrips:
    def test_every_protocol_message_is_registered(self):
        assert set(WIRE_MESSAGES) <= set(WIRE_TYPES)
        for messages in PROTOCOL_MESSAGES.values():
            assert set(messages) <= set(WIRE_TYPES)

    @EVERY_TYPE
    def test_samples_round_trip_in_every_format(self, cls):
        for variant in (0, 1):
            original = sample(cls, variant)
            for format in ("binary", "json"):
                decoded = decode(encode(original, format=format))
                assert same(decoded, original), (format, decoded, original)
            assert same(decode(encode_batch([original] * 3)).envelopes,
                        (original,) * 3)

    @EVERY_TYPE
    @WIRE_SETTINGS
    @given(data=st.data())
    def test_generated_instances_round_trip(self, cls, data):
        original = data.draw(instances(cls))
        binary = decode(encode(original))
        assert same(binary, original)
        assert same(decode(encode(original, format="json")), binary)
        assert same(decode(encode_batch([original, original])).envelopes,
                    (original, original))

    @WIRE_SETTINGS
    @given(original=instances(_EveryKind))
    def test_a_type_registered_later_is_planned_from_its_annotations(
            self, original):
        assert [kind for _name, kind in field_plan(_EveryKind)] == [
            FieldKind("bool", True), FieldKind("float", True),
            FieldKind("bytes", True), FieldKind("strs", True),
            FieldKind("floats", True), FieldKind("value"), FieldKind("value")]
        for format in ("binary", "json"):
            assert same(decode(encode(original, format=format)), original)

    @WIRE_SETTINGS
    @given(value=PLAIN)
    def test_plain_values_round_trip(self, value):
        binary = decode(encode(value))
        assert same(binary, value)
        assert same(decode(encode(value, format="json")), binary)

    def test_int64_boundaries_and_lengths_around_the_escape(self):
        for timestamp in (-(2 ** 63), -1, 0, 2 ** 63 - 1):
            message = CcloPutReply(key="k", timestamp=timestamp)
            assert same(decode(encode(message)), message)
        # A length byte below 254 is the length; 254 and up take the u32.
        for length in (0, 1, 253, 254, 255, 256, 70_000):
            message = ReplicateUpdate(
                key="k" * length, timestamp=1, origin_dc=0, value_size=8,
                dependency_vector=tuple(range(length)),
                dependencies=tuple(("d" * length, row)
                                   for row in range(min(length, 300))))
            assert same(decode(encode(message)), message)
            assert same(decode(encode(message, format="json")), message)

    def test_sequences_decode_as_tuples(self):
        decoded = decode(encode([1, [2, 3]]))
        assert decoded == (1, (2, 3))
        assert type(decoded) is tuple

    def test_binary_is_compact(self):
        message = sample(RotValueReply)
        assert len(encode(message)) < len(encode(message, format="json"))

    def test_codecs_are_compiled_on_first_use_not_at_import(self):
        import os
        import subprocess
        import sys

        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "import repro.runtime.process, repro.obs.events\n"
            "from repro.wire import codec\n"
            "assert not codec._PACKERS and not codec._UNPACKERS\n"
            "from repro.core.common.messages import CcloPutReply\n"
            "codec.decode(codec.encode(CcloPutReply('k', 1)))\n"
            "assert list(codec._PACKERS) == [CcloPutReply]\n")
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestEncodeRejectsContradictions:
    @EVERY_TYPE
    def test_a_field_contradicting_its_annotation_fails_at_encode(self, cls):
        valid = sample(cls)
        for name, kind in field_plan(cls):
            for bad in _CONTRADICTIONS.get(kind.base, ()):
                broken = dataclasses.replace(valid, **{name: bad})
                with pytest.raises(WireFormatError, match="cannot encode"):
                    encode(broken)
                with pytest.raises(WireFormatError, match="cannot encode"):
                    encode_batch([valid, broken])

    def test_none_needs_an_optional_annotation(self):
        for cls in WIRE_TYPES:
            valid = sample(cls)
            for name, kind in field_plan(cls):
                if kind.base != "value" and not kind.optional:
                    with pytest.raises(WireFormatError):
                        encode(dataclasses.replace(valid, **{name: None}))

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

    def test_unknown_format_rejected(self):
        with pytest.raises(WireFormatError, match="unknown wire format"):
            encode(1, format="xml")


class TestDecodeErrorPaths:
    def test_empty_and_short_frames(self):
        for data in (b"", b"\xa7", bytes((MAGIC, WIRE_VERSION))):
            with pytest.raises(WireFormatError, match="too short"):
                decode(data)

    def test_bad_magic(self):
        with pytest.raises(WireFormatError, match="magic"):
            decode(bytes((0x00, WIRE_VERSION, 0x01)) + b"\x01")

    def test_unknown_format_tag(self):
        with pytest.raises(WireFormatError, match="format"):
            decode(bytes((MAGIC, WIRE_VERSION, 0x7F)) + b"\x01")

    def test_truncated_binary_frame(self):
        payload = encode(sample(VectorPutRequest))
        for cut in (1, 3, 9, len(payload) - 4):
            with pytest.raises(WireFormatError, match="truncated|malformed"):
                decode(payload[:-cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireFormatError, match="trailing"):
            decode(encode(sample(CcloPutReply)) + b"\x00")

    def test_unknown_struct_id(self):
        body = bytes((MAGIC, WIRE_VERSION, 0x01, 0xD8)) \
            + struct.pack(">H", 9999) + bytes((0x90,))
        with pytest.raises(WireFormatError, match="unknown wire type id"):
            decode(body)

    def test_unknown_binary_tag(self):
        with pytest.raises(WireFormatError, match="unknown binary tag"):
            decode(bytes((MAGIC, WIRE_VERSION, 0x01, 0xC1)))

    def test_count_beyond_the_remaining_bytes_is_rejected_up_front(self):
        message = VectorPutRequest(key="k", value_size=8, client_vector=(1, 2),
                                   client_id="c", sequence=1)
        payload = bytearray(encode(message))
        plan = [kind.base for _name, kind in field_plan(VectorPutRequest)]
        assert plan[:3] == ["str", "int", "ints"]
        # header 3, struct tag 3, then the fixed block: B q B ...
        count_at = 3 + 3 + 1 + 8
        assert payload[count_at] == 2
        payload[count_at] = 200
        with pytest.raises(WireFormatError, match="announces 200 elements"):
            decode(bytes(payload))

    def test_deep_nesting_is_a_wire_error_not_a_recursion_error(self):
        body = bytes((MAGIC, WIRE_VERSION, 0x01)) + b"\x91" * 100_000 + b"\x01"
        with pytest.raises(WireFormatError, match="RecursionError"):
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

    def test_json_struct_with_absent_fields_rejected(self):
        document = {"__wire__": "TraceEvent",
                    "fields": {"seq": 4, "ts": 1.25, "node": "client-0",
                               "kind": "op_start"}}
        body = bytes((MAGIC, WIRE_VERSION, 0x02)) \
            + json.dumps(document).encode()
        with pytest.raises(WireFormatError, match="field mismatch"):
            decode(body)


class TestFraming:
    def test_incremental_feed_reassembles_frames(self):
        payloads = [encode(sample(CcloPutReply)),
                    encode(sample(RotValueReply), format="json")]
        stream = b"".join(frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), 3):  # drip-feed 3 bytes at a time
            out.extend(decoder.feed(stream[i:i + 3]))
        assert [decode(p) for p in out] == [decode(p) for p in payloads]
        assert decoder.pending_bytes == 0

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError, match="limit"):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_ten_thousand_small_frames_in_one_chunk_and_byte_by_byte(self):
        payload = encode_batch([sample(CcloPutReply)])
        count = 10_000
        stream = frame(payload) * count
        decoder = FrameDecoder()
        frames = decoder.feed(stream + stream[:5])
        assert frames == [payload] * count
        assert decoder.pending_bytes == 5
        decoder = FrameDecoder()
        frames = []
        for offset in range(len(stream)):
            frames.extend(decoder.feed(stream[offset:offset + 1]))
        assert frames == [payload] * count
        assert decoder.pending_bytes == 0


class TestWireVersion:
    """One wire version: every peer of a run is started from the same tree.

    The version byte stays in the header so that a frame from anything else
    is rejected loudly instead of mis-parsed.
    """

    def test_version_constants(self):
        assert WIRE_VERSION == 6
        assert SUPPORTED_WIRE_VERSIONS == (WIRE_VERSION,)

    def test_unsupported_versions_rejected(self):
        frames = [encode(sample(CcloPutReply), format="binary"),
                  encode(sample(CcloPutReply), format="json"),
                  encode_batch([sample(CcloPutReply)] * 3)]
        for version in (0, 1, 2, 3, 4, 5, 99):
            for payload in map(bytearray, frames):
                assert payload[1] == WIRE_VERSION
                payload[1] = version
                with pytest.raises(WireFormatError, match="version"):
                    decode(bytes(payload))

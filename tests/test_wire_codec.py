"""Wire-codec tests: plan-derived round trips, type fidelity, error paths.

Every registered wire type is exercised through samples and strategies built
from the codec's own field plan (``wire_support``): ``decode(encode(x)) == x``
with identical types in the binary and batch formats, a value contradicting
its annotation fails at encode, and malformed or unknown-version frames raise
the typed :class:`~repro.errors.WireFormatError`.
"""

import dataclasses
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
    decode,
    encode,
    frame,
    register_wire_type,
)
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
    batch_of,
    instances,
    payloads,
    read_frames,
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
            decoded = decode(encode(original))
            assert same(decoded, original), (decoded, original)
            assert same(payloads(batch_of([original] * 3)),
                        (original,) * 3)

    @EVERY_TYPE
    @WIRE_SETTINGS
    @given(data=st.data())
    def test_generated_instances_round_trip(self, cls, data):
        original = data.draw(instances(cls))
        binary = decode(encode(original))
        assert same(binary, original)
        assert same(payloads(batch_of([original, original])),
                    (original, original))

    @WIRE_SETTINGS
    @given(original=instances(_EveryKind))
    def test_a_type_registered_later_is_planned_from_its_annotations(
            self, original):
        assert [kind for _name, kind in field_plan(_EveryKind)] == [
            FieldKind("bool", True), FieldKind("float", True),
            FieldKind("bytes", True), FieldKind("strs", True),
            FieldKind("floats", True), FieldKind("value"), FieldKind("value")]
        assert same(decode(encode(original)), original)

    @WIRE_SETTINGS
    @given(value=PLAIN)
    def test_plain_values_round_trip(self, value):
        assert same(decode(encode(value)), value)

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

    def test_sequences_decode_as_tuples(self):
        decoded = decode(encode([1, [2, 3]]))
        assert decoded == (1, (2, 3))
        assert type(decoded) is tuple

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
                    batch_of([valid, broken])

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

        with pytest.raises(WireFormatError, match="not a registered"):
            encode(NotOnTheWire(x=1))

    def test_registering_non_dataclass_rejected(self):
        with pytest.raises(WireFormatError, match="dataclass"):
            register_wire_type(int)


class TestDecodeErrorPaths:
    def test_empty_and_short_frames(self):
        for data in (b"", b"\xa7", bytes((MAGIC, WIRE_VERSION))):
            with pytest.raises(WireFormatError, match="too short"):
                decode(data)

    def test_bad_magic(self):
        with pytest.raises(WireFormatError, match="magic"):
            decode(bytes((0x00, WIRE_VERSION, 0x01)) + b"\x01")

    def test_unknown_format_tag(self):
        # No format owns 0x02 (nor any tag but 0x01 and 0x03).
        for tag in (0x00, 0x02, 0x7F):
            with pytest.raises(WireFormatError,
                               match=f"unknown wire format tag 0x{tag:02X}"):
                decode(bytes((MAGIC, WIRE_VERSION, tag)) + b"{}")

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


class TestFraming:
    def test_frames_reassemble_across_chunk_boundaries(self):
        payloads = [encode(sample(CcloPutReply)), encode(sample(RotValueReply))]
        stream = b"".join(frame(p) for p in payloads)
        # Drip-fed 3 bytes at a time.
        chunks = [stream[i:i + 3] for i in range(0, len(stream), 3)]
        assert read_frames(chunks) == payloads

    def test_oversized_length_prefix_rejected(self):
        with pytest.raises(WireFormatError, match="limit"):
            read_frames([struct.pack(">I", MAX_FRAME_BYTES + 1)])

    def test_many_small_frames_in_one_chunk_and_byte_by_byte(self):
        payload = batch_of([sample(CcloPutReply)])
        stream = frame(payload) * 10_000
        assert read_frames([stream]) == [payload] * 10_000
        # A stream that ends 5 bytes into the next frame is torn, not done.
        with pytest.raises(WireFormatError, match="stream ended inside"):
            read_frames([stream, stream[:2], stream[2:5]])
        short = frame(payload) * 200
        assert read_frames([short[offset:offset + 1]
                            for offset in range(len(short))]) == [payload] * 200


class TestWireVersion:
    """One wire version: every peer of a run is started from the same tree.

    The version byte stays in the header so that a frame from anything else
    is rejected loudly instead of mis-parsed.
    """

    def test_version_constants(self):
        assert WIRE_VERSION == 9
        assert SUPPORTED_WIRE_VERSIONS == (WIRE_VERSION,)

    def test_unsupported_versions_rejected(self):
        frames = [encode(sample(CcloPutReply)),
                  batch_of([sample(CcloPutReply)] * 3)]
        for version in (0, 1, 2, 3, 4, 5, 6, 7, 8, 99):
            for payload in map(bytearray, frames):
                assert payload[1] == WIRE_VERSION
                payload[1] = version
                with pytest.raises(WireFormatError, match="version"):
                    decode(bytes(payload))

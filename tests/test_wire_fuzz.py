"""Robustness contract of the wire layer: malformed bytes raise only
:class:`~repro.errors.WireFormatError`.

Arbitrary bytes and mutations of valid v5 frames — of every registered type
and of mixed batches: bit flips, truncation at every offset, a length or
count inflated to its maximum, a wrong type id, trailing bytes — go into
``decode`` and ``FrameDecoder.feed``.  Each call must
return or raise ``WireFormatError``, nothing else, and must not allocate in
proportion to a count the frame merely claims.  Deterministic
(``derandomize=True``), so tier-1 stays reproducible.
"""

import struct
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.errors import WireFormatError
from repro.wire.batch import encode_batch
from repro.wire.codec import MAGIC, WIRE_VERSION, decode, encode
from repro.wire.framing import FrameDecoder, frame
from wire_support import (
    EVERY_TYPE,
    WIRE_SETTINGS,
    WIRE_TYPES,
    instances,
    sample,
)

_HEADERS = [bytes((MAGIC, WIRE_VERSION, tag)) for tag in (1, 2, 3)]


def _mixed_batch() -> list:
    return [sample(cls, variant) for cls in WIRE_TYPES for variant in (0, 1)]


def _survives(decoder, data: bytes) -> None:
    """``decoder(data)`` returns or raises WireFormatError — nothing else."""
    try:
        decoder(data)
    except WireFormatError:
        pass


def _frames_of(cls) -> list[bytes]:
    return [encode(sample(cls)), encode(sample(cls, 1)),
            encode_batch([sample(cls), sample(cls, 1), sample(cls)])]


def _mutations(payload: bytes):
    """Every single-bit flip, every truncation, every position overwritten
    with the length escape followed by the largest u32, and trailing bytes."""
    for offset in range(len(payload)):
        yield payload[:offset]
        for bit in range(8):
            flipped = bytearray(payload)
            flipped[offset] ^= 1 << bit
            yield bytes(flipped)
        inflated = bytearray(payload)
        inflated[offset:offset + 5] = b"\xff" * 5
        yield bytes(inflated[:len(payload)])
        yield bytes(inflated)
    yield payload + b"\x00"
    yield payload + payload


class TestMutatedFrames:
    @EVERY_TYPE
    def test_every_mutation_of_a_valid_frame_is_survived(self, cls):
        for payload in _frames_of(cls):
            assert decode(payload) is not None
            for mutated in _mutations(payload):
                _survives(decode, mutated)

    @EVERY_TYPE
    def test_wrong_type_ids(self, cls):
        payload = bytearray(encode(sample(cls)))
        assert payload[3] == 0xD8
        own = bytes(payload[4:6])
        others = {encode(sample(other))[4:6] for other in WIRE_TYPES} - {own}
        for type_id in sorted(others) + [b"\xff\xff", b"\x03\xff"]:
            payload[4:6] = type_id
            _survives(decode, bytes(payload))
        payload[4:6] = b"\xff\xff"
        with pytest.raises(WireFormatError, match="unknown wire type id"):
            decode(bytes(payload))

    def test_mutated_mixed_batch(self):
        rows = _mixed_batch()
        batch = encode_batch(rows)
        assert list(decode(batch).envelopes) == rows
        # Bit flips over the whole frame would be quadratic in its length;
        # the per-type test covers every layout, so sample the positions.
        for offset in range(0, len(batch), 7):
            for mutated in (batch[:offset],
                            batch[:offset] + b"\xff" * 5 + batch[offset + 5:],
                            batch[:offset] + bytes((batch[offset] ^ 0x10,))
                            + batch[offset + 1:]):
                _survives(decode, mutated)
        with pytest.raises(WireFormatError, match="trailing"):
            decode(batch + b"\x00")

    def test_claimed_counts_allocate_nothing(self):
        frames = [payload for cls in WIRE_TYPES for payload in _frames_of(cls)]
        frames.append(encode_batch(_mixed_batch()))
        # Warm up: compile every codec and fill the caches outside the
        # measured region.
        for payload in frames:
            decode(payload)
        tracemalloc.start()
        try:
            for payload in frames:
                for offset in range(3, len(payload)):
                    inflated = bytearray(payload)
                    inflated[offset:offset + 5] = b"\xff" * 5
                    del inflated[len(payload):]
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    _survives(decode, bytes(inflated))
                    peak = tracemalloc.get_traced_memory()[1] - before
                    # A count of 2**32 - 1 sized up front would need
                    # gigabytes; decoding may use a few frames' worth.
                    assert peak < 64 * 1024 + 16 * len(payload), (
                        offset, payload.hex())
        finally:
            tracemalloc.stop()


class TestArbitraryBytes:
    @WIRE_SETTINGS
    @given(data=st.binary(max_size=256))
    def test_binary_garbage(self, data):
        _survives(decode, data)
        for header in _HEADERS:
            _survives(decode, header + data)
        decoder = FrameDecoder()
        _survives(decoder.feed, data)
        _survives(decoder.feed, data)

    @WIRE_SETTINGS
    @given(data=st.data())
    def test_mutated_generated_frames(self, data):
        cls = data.draw(st.sampled_from(WIRE_TYPES))
        rows = data.draw(st.lists(instances(cls), min_size=1, max_size=3))
        payload = bytearray(data.draw(st.sampled_from(
            (encode(rows[0]), encode_batch(rows)))))
        edits = data.draw(st.lists(
            st.tuples(st.integers(0, len(payload) - 1), st.integers(0, 255)),
            min_size=1, max_size=4))
        for offset, byte in edits:
            payload[offset] = byte
        cut = data.draw(st.integers(0, len(payload)))
        _survives(decode, bytes(payload))
        _survives(decode, bytes(payload[:cut]))


class TestFrameDecoderStreams:
    def test_corrupt_prefixes_raise_before_buffering_a_frame(self):
        payload = encode_batch([sample(WIRE_TYPES[0])])
        stream = frame(payload) * 3
        for offset in range(len(stream)):
            for byte in (0x00, 0x7F, 0xFF):
                corrupt = bytearray(stream)
                corrupt[offset] = byte
                decoder = FrameDecoder()
                try:
                    payloads = decoder.feed(bytes(corrupt))
                except WireFormatError:
                    continue
                assert decoder.pending_bytes <= len(stream)
                for body in payloads:
                    _survives(decode, body)

    def test_oversize_prefix_never_allocates_the_claimed_length(self):
        decoder = FrameDecoder()
        tracemalloc.start()
        try:
            with pytest.raises(WireFormatError, match="limit"):
                decoder.feed(struct.pack(">I", 2 ** 32 - 1) + b"x" * 64)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

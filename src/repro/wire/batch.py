"""Batch frames: N envelopes coalesced into one length-prefixed flush.

The replication hot path used to pay the full per-message toll — one codec
frame, one length prefix, one queue hop, one socket write — for every
update.  A *batch frame* amortises all of that: the transport coalesces the
envelopes bound for one peer and flushes them as a single frame whose
payload is::

    [magic 0xA7] [wire version 3] [format 0x03]
    [u32 envelope count] [u16 section count]
    section ...

    section := [u8 1] struct-array            -- columnar run (see below)
             | [u8 0] [u32 count] value ...   -- generic run

Consecutive envelopes whose payloads share one message type (the normal
case: replication and heartbeat streams are homogeneous) become a *columnar*
section — one :func:`repro.wire.codec.encode_struct_array` of the envelopes,
which stores each field as an array (raw int64 columns, one UTF-8 blob per
string column, constants folded to a single value) instead of per-message
tagged dicts.  The receive side decodes integer columns through
``memoryview`` casts straight off the buffer and reconstructs messages with
one C-level ``map`` sweep, interning key fields as it goes.  Short
heterogeneous runs fall back to the generic per-value encoding.

Nothing batched is ever required — batching is a transport policy, see
:class:`FlushPolicy` and :mod:`repro.runtime.transport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import WireFormatError
from repro.wire.codec import (
    FORMAT_BATCH,
    MAGIC,
    MAX_STRUCT_ARRAY,
    WIRE_VERSION,
    _decode_value,
    _encode_value,
    _pack_u16,
    _pack_u32,
    _Reader,
    _unpack_u16,
    _unpack_u32,
    decode_struct_array,
    encode_struct_array,
)

#: Upper bound on envelopes per batch frame (mirrors the struct-array limit;
#: a count beyond it means stream corruption, not a big batch).
MAX_BATCH_MESSAGES = MAX_STRUCT_ARRAY

#: Minimum run length worth a columnar section; shorter runs pay the
#: column headers without amortising them.
MIN_COLUMNAR_RUN = 4

_SECTION_GENERIC = 0
_SECTION_COLUMNAR = 1


@dataclass(frozen=True)
class BatchFrame:
    """The decoded form of one batch frame: the coalesced envelopes, in
    send order.  Transports fan these back out to per-node delivery."""

    envelopes: tuple

    def __len__(self) -> int:
        return len(self.envelopes)


@dataclass(frozen=True)
class FlushPolicy:
    """When :class:`~repro.runtime.transport.TcpTransport` flushes its
    pending envelopes.

    A flush happens at whichever comes first:

    * ``max_messages`` envelopes are pending for one peer, or
    * the pending envelopes' estimated size reaches ``max_bytes``, or
    * the event loop goes idle (the transport schedules a ``call_soon``
      flush with the first buffered envelope, so a batch never waits on
      future traffic — worst-case added latency is one loop iteration).
    """

    max_messages: int = 128
    max_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.max_messages < 1 or self.max_messages > MAX_BATCH_MESSAGES:
            raise ValueError(
                f"max_messages must be in [1, {MAX_BATCH_MESSAGES}], "
                f"got {self.max_messages}")
        if self.max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {self.max_bytes}")


#: The thresholds a default-constructed ``TcpTransport`` flushes at.
DEFAULT_FLUSH_POLICY = FlushPolicy()


def encode_batch(envelopes: Sequence) -> bytes:
    """Encode ``envelopes`` into one self-contained batch frame body.

    Every envelope must be a registered wire dataclass with a ``payload``
    attribute (the run splitter groups by payload type); in practice they
    are :class:`repro.runtime.transport.Envelope` instances.
    """
    count = len(envelopes)
    if count > MAX_BATCH_MESSAGES:
        raise WireFormatError(
            f"batch of {count} envelopes exceeds the "
            f"{MAX_BATCH_MESSAGES}-envelope limit")
    out = bytearray((MAGIC, WIRE_VERSION, FORMAT_BATCH))
    out += _pack_u32(count)
    sections_at = len(out)
    out += _pack_u16(0)  # patched once the section count is known
    n_sections = 0
    start = 0
    while start < count:
        run_type = type(envelopes[start].payload)
        end = start + 1
        while end < count and type(envelopes[end].payload) is run_type:
            end += 1
        if end - start >= MIN_COLUMNAR_RUN:
            out.append(_SECTION_COLUMNAR)
            encode_struct_array(list(envelopes[start:end]), out)
        else:
            # Also swallow the following short runs: adjacent generic
            # sections would only repeat the section header.
            while end < count:
                next_type = type(envelopes[end].payload)
                run_to = end + 1
                while (run_to < count
                       and type(envelopes[run_to].payload) is next_type):
                    run_to += 1
                if run_to - end >= MIN_COLUMNAR_RUN:
                    break
                end = run_to
            out.append(_SECTION_GENERIC)
            out += _pack_u32(end - start)
            for envelope in envelopes[start:end]:
                _encode_value(envelope, out)
        n_sections += 1
        start = end
    out[sections_at:sections_at + 2] = _pack_u16(n_sections)
    return bytes(out)


def encode_record_batch(records: Sequence) -> bytes:
    """Encode a homogeneous record sequence as one compact blob.

    The observation-streaming path ships ``RecordedPut``/``RecordedRot``
    chunks from worker processes with the same columnar struct-array layout
    batch frames use for envelope runs — a u32 total count followed by one
    struct array per ``MAX_STRUCT_ARRAY``-bounded slice.  An empty sequence
    encodes as zero bytes (chunks are routinely one-sided: a drain interval
    may carry only puts or only rots).
    """
    if not records:
        return b""
    out = bytearray(_pack_u32(len(records)))
    start = 0
    while start < len(records):
        end = min(start + MAX_STRUCT_ARRAY, len(records))
        encode_struct_array(list(records[start:end]), out)
        start = end
    return bytes(out)


def decode_record_batch(blob: bytes) -> list:
    """Decode one :func:`encode_record_batch` blob back into records."""
    if not blob:
        return []
    if len(blob) < 4:
        raise WireFormatError(
            f"record batch too short ({len(blob)} bytes); need the 4-byte "
            f"count prefix")
    count = _unpack_u32(blob, 0)[0]
    mv = memoryview(blob)
    pos = 4
    records: list = []
    while len(records) < count:
        values, pos = decode_struct_array(blob, mv, pos)
        records.extend(values)
    if len(records) != count:
        raise WireFormatError(
            f"record batch announced {count} records but carries "
            f"{len(records)}")
    if pos != len(blob):
        raise WireFormatError(
            f"{len(blob) - pos} trailing bytes after the record batch")
    return records


def decode_batch_payload(data: bytes) -> BatchFrame:
    """Decode one batch frame body (header already validated by ``decode``)."""
    if len(data) < 9:
        raise WireFormatError(
            f"batch frame too short ({len(data)} bytes); need at least the "
            f"9-byte batch header")
    count = _unpack_u32(data, 3)[0]
    n_sections = _unpack_u16(data, 7)[0]
    if count > MAX_BATCH_MESSAGES:
        raise WireFormatError(
            f"batch count {count} exceeds the {MAX_BATCH_MESSAGES}-envelope "
            f"limit (corrupt frame?)")
    mv = memoryview(data)
    pos = 9
    envelopes: list = []
    for _section in range(n_sections):
        if pos >= len(data):
            raise WireFormatError("truncated batch frame: missing section")
        kind = data[pos]
        pos += 1
        if kind == _SECTION_COLUMNAR:
            values, pos = decode_struct_array(data, mv, pos)
            envelopes.extend(values)
        elif kind == _SECTION_GENERIC:
            if pos + 4 > len(data):
                raise WireFormatError(
                    "truncated batch frame: generic section header")
            section_count = _unpack_u32(data, pos)[0]
            if section_count > MAX_BATCH_MESSAGES:
                raise WireFormatError(
                    f"batch section count {section_count} exceeds the "
                    f"{MAX_BATCH_MESSAGES}-envelope limit (corrupt frame?)")
            reader = _Reader(data, pos + 4)
            for _ in range(section_count):
                envelopes.append(_decode_value(reader))
            pos = reader.pos
        else:
            raise WireFormatError(f"unknown batch section kind {kind}")
    if pos != len(data):
        raise WireFormatError(
            f"{len(data) - pos} trailing bytes after the batch payload")
    if len(envelopes) != count:
        raise WireFormatError(
            f"batch frame announced {count} envelopes but carries "
            f"{len(envelopes)}")
    return BatchFrame(envelopes=tuple(envelopes))


__all__ = [
    "BatchFrame",
    "DEFAULT_FLUSH_POLICY",
    "FlushPolicy",
    "MAX_BATCH_MESSAGES",
    "MIN_COLUMNAR_RUN",
    "encode_batch",
    "decode_batch_payload",
    "decode_record_batch",
    "encode_record_batch",
]

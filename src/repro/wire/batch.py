"""Batch frames: the envelopes bound for one peer, coalesced into one flush.

A per-message frame pays one codec frame, one length prefix and one socket
write per envelope.  A *batch frame* amortises all of that: the transport
coalesces the envelopes bound for one peer and flushes them as a single
frame whose payload is::

    [magic 0xA7] [wire version 9] [format 0x03]
    [u32 row count] [u32 address count]
    address ... address      -- each distinct sender/destination, once
    row ... row              -- one per envelope, in send order

    row = [u16 sender index] [u16 dest index] [trace] [payload]

Addresses, the trace and the payload are tagged values of
:mod:`repro.wire.codec`; a payload is written by its type's compiled packer,
exactly as :func:`~repro.wire.codec.encode` writes it after the frame header.
A burst of replies from a few servers to a few clients names each address
once per frame, not twice per message, and no :class:`Envelope` record is
built on either side: :class:`BatchWriter` encodes each row as it is sent,
and :func:`read_batch` hands each row to its destination as it is decoded,
having resolved every table entry once per frame.  :data:`MAX_BATCH_MESSAGES`
rows name at most ``2 * MAX_BATCH_MESSAGES`` = 65,536 addresses, which is
what a ``u16`` index reaches.

:class:`Envelope` is the record form of a row, for callers that want one:
:func:`encode_batch` takes envelopes, and :func:`~repro.wire.codec.decode`
turns a batch frame back into a :class:`BatchFrame` of envelopes through
the same row decoder the transport delivers from.

When to flush is a transport policy, see :class:`FlushPolicy` and
:mod:`repro.runtime.transport`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.common.kernel import Addr, ClientAddr, ServerAddr
from repro.core.common.records import record
from repro.errors import WireFormatError
from repro.wire.codec import (
    _DECODE_ERRORS,
    _ENCODE_ERRORS,
    _NIL,
    _PACKERS,
    _UNPACKERS,
    FORMAT_BATCH,
    MAGIC,
    WIRE_VERSION,
    _check_consumed,
    _decode_value,
    _encode_value,
    _malformed,
    _short,
    _unencodable,
    frame_format,
    register_wire_type,
)
from repro.wire.framing import LENGTH_BYTES, MAX_FRAME_BYTES

#: Upper bound on envelopes per batch frame: two ``u16`` indexes per row
#: then never need more than 65,536 table entries.
MAX_BATCH_MESSAGES = 1 << 15

#: Reserved wire type ids of the routing records (kept out of the message
#: and dynamic ranges so every process agrees on them without import-order
#: luck).
_WIRE_ID_SERVER_ADDR = 512
_WIRE_ID_CLIENT_ADDR = 513
_WIRE_ID_ENVELOPE = 514

register_wire_type(ServerAddr, type_id=_WIRE_ID_SERVER_ADDR)
register_wire_type(ClientAddr, type_id=_WIRE_ID_CLIENT_ADDR)


@record
class Envelope:
    """One routed message on the wire: sender, destination, payload.

    ``trace`` carries the causal trace id of the operation the payload
    belongs to (see :mod:`repro.obs`); ``None`` when tracing is disabled.
    """

    sender: Optional[Addr]
    dest: Addr
    payload: object
    trace: Optional[str] = None


register_wire_type(Envelope, type_id=_WIRE_ID_ENVELOPE)


@dataclass(frozen=True)
class BatchFrame:
    """The decoded form of one batch frame: its envelopes, in send order."""

    envelopes: tuple

    def __len__(self) -> int:
        return len(self.envelopes)


@dataclass(frozen=True)
class FlushPolicy:
    """When :class:`~repro.runtime.transport.TcpTransport` flushes its
    pending envelopes.

    A flush happens at whichever comes first:

    * ``max_messages`` envelopes are pending for one peer, or
    * the pending rows reach ``max_bytes`` encoded bytes, or
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

_HEADER = bytes((MAGIC, WIRE_VERSION, FORMAT_BATCH))
_COUNTS = struct.Struct(">II")          # rows, addresses
_TABLE_START = len(_HEADER) + _COUNTS.size
_INDEXES = struct.Struct(">HH")         # sender, destination
#: A row's indexes and the tag byte of its trace, ``_NIL`` when it has none.
_ROW_HEAD = struct.Struct(">HHB")
_pack_frame_head = struct.Struct(">I3sII").pack


class BatchWriter:
    """The address table and rows of one batch frame, encoded as rows are
    added.

    The table is keyed by ``id()``: the writer holds every address it has
    indexed until the frame is written, so no two of them share an id, and
    no dataclass ``__hash__`` runs per row.  Equal addresses that are
    distinct objects take one entry each, which costs bytes, not
    correctness.
    """

    __slots__ = ("addresses", "indexes", "table", "rows", "count")

    def __init__(self) -> None:
        self.addresses: list[object] = []
        self.indexes: dict[int, int] = {}
        self.table = bytearray()
        #: The encoded rows; their length is what the byte threshold reads.
        self.rows = bytearray()
        self.count = 0

    def add(self, sender: Optional[Addr], dest: Addr, payload: object,
            trace: Optional[str] = None) -> None:
        """Append one row; raises :class:`~repro.errors.WireFormatError`
        (and writes no row) when a field of it cannot be encoded."""
        indexes = self.indexes
        s = indexes.get(id(sender))
        if s is None:
            s = self._index(sender)
        d = indexes.get(id(dest))
        if d is None:
            d = self._index(dest)
        rows = self.rows
        mark = len(rows)
        try:
            if trace is None:
                rows += _ROW_HEAD.pack(s, d, _NIL)
            else:
                rows += _INDEXES.pack(s, d)
                _encode_value(trace, rows)
            entry = _PACKERS.get(type(payload))
            if entry is None:
                _encode_value(payload, rows)
            else:
                rows += entry[0]
                entry[1](payload, rows)
        except _ENCODE_ERRORS as exc:
            del rows[mark:]
            raise _unencodable(payload, exc) from exc
        except WireFormatError:
            del rows[mark:]
            raise
        self.count += 1

    def _index(self, address: object) -> int:
        table = self.table
        mark = len(table)
        try:
            _encode_value(address, table)
        except _ENCODE_ERRORS as exc:
            del table[mark:]
            raise _unencodable(address, exc) from exc
        except WireFormatError:
            del table[mark:]
            raise
        index = self.indexes[id(address)] = len(self.addresses)
        self.addresses.append(address)
        return index

    def framed(self) -> bytearray:
        """The length-prefixed frame of everything added so far."""
        length = _TABLE_START + len(self.table) + len(self.rows)
        if length > MAX_FRAME_BYTES:
            raise WireFormatError(
                f"frame payload of {length} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit")
        out = bytearray(_pack_frame_head(length, _HEADER, self.count,
                                         len(self.addresses)))
        out += self.table
        out += self.rows
        return out


def encode_batch(envelopes: Sequence[Envelope]) -> bytes:
    """Encode ``envelopes`` into one self-contained batch frame body, which
    :func:`repro.wire.codec.decode` turns back into a :class:`BatchFrame`."""
    if len(envelopes) > MAX_BATCH_MESSAGES:
        raise WireFormatError(
            f"batch of {len(envelopes)} envelopes exceeds the "
            f"{MAX_BATCH_MESSAGES}-envelope limit")
    writer = BatchWriter()
    for envelope in envelopes:
        if type(envelope) is not Envelope:
            raise WireFormatError(
                f"cannot encode a {type(envelope).__name__} as a batch row: "
                f"rows are Envelopes")
        writer.add(envelope.sender, envelope.dest, envelope.payload,
                   envelope.trace)
    return bytes(memoryview(writer.framed())[LENGTH_BYTES:])


def read_batch(data: bytes,
               resolve: Callable[[object], Callable[..., None]]) -> int:
    """Deliver the rows of the batch frame body ``data``; returns how many.

    ``resolve(address)`` is called once per table entry and returns the
    ``deliver(sender, payload, trace)`` of that destination; each row is
    handed to it as soon as it is decoded.  A malformed frame raises
    :class:`~repro.errors.WireFormatError` — after delivering the rows
    before the damage, never a row that overruns the frame.
    """
    if frame_format(data) != FORMAT_BATCH:
        raise WireFormatError(
            f"expected a batch frame, got format 0x{data[2]:02X}")
    try:
        data = bytes(data)  # a no-op for bytes; slices must be hashable
        size = len(data)
        count, entries = _COUNTS.unpack_from(data, len(_HEADER))
        pos = _TABLE_START
        if entries > size - pos:
            raise _short("address table", entries)
        addresses = []
        for _ in range(entries):
            address, pos = _decode_value(data, pos)
            addresses.append(address)
        deliveries = [resolve(address) for address in addresses]
        if count > size - pos:
            raise _short("batch", count)
        unpackers, unpack_head = _UNPACKERS, _ROW_HEAD.unpack_from
        for _ in range(count):
            s, d, tag = unpack_head(data, pos)
            if tag == _NIL:
                trace = None
                pos += _ROW_HEAD.size
            else:
                trace, pos = _decode_value(data, pos + _INDEXES.size)
            unpack = unpackers.get(data[pos:pos + 3])
            if unpack is None:
                payload, pos = _decode_value(data, pos)
            else:
                payload, pos = unpack(data, pos + 3)
            if pos > size:
                break  # a truncated row: _check_consumed names it
            deliveries[d](addresses[s], payload, trace)
    except _DECODE_ERRORS as exc:
        raise _malformed(exc) from exc
    _check_consumed(pos, size)
    return count


def decode_batch(data: bytes) -> BatchFrame:
    """The :class:`BatchFrame` of the batch frame body ``data``."""
    envelopes: list[Envelope] = []

    def resolve(dest: object) -> Callable[..., None]:
        def deliver(sender, payload, trace) -> None:
            envelopes.append(Envelope(sender, dest, payload, trace))
        return deliver

    read_batch(data, resolve)
    return BatchFrame(tuple(envelopes))


__all__ = [
    "BatchFrame",
    "BatchWriter",
    "DEFAULT_FLUSH_POLICY",
    "Envelope",
    "FlushPolicy",
    "MAX_BATCH_MESSAGES",
    "decode_batch",
    "encode_batch",
    "read_batch",
]

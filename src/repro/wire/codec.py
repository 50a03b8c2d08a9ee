"""Versioned, self-describing wire codec for protocol messages.

Every value that crosses a process boundary is encoded into a *frame body*::

    [magic 0xA7] [wire version] [format tag] [payload ...]

Two payload formats share that header:

* **binary** (:data:`FORMAT_BINARY`, the default) — a compact msgpack-style
  tagged encoding written from scratch (no third-party dependency): small
  integers, strings and containers use single-byte tags with embedded
  lengths; registered dataclasses are encoded as a ``STRUCT`` tag plus a
  16-bit type id plus their field values in declaration order.
* **JSON debug** (:data:`FORMAT_JSON`) — the same object graph rendered as
  human-readable JSON (``{"__wire__": "VectorPutRequest", "fields": {...}}``)
  for protocol debugging (``tcpdump``/log inspection); byte-for-byte bigger,
  value-for-value identical after decoding.

The codec is *self-describing*: a decoder needs only the frame bytes — type
tags identify every registered dataclass, and the header pins the wire
version so incompatible peers fail loudly
(:class:`~repro.errors.WireFormatError`) instead of mis-parsing.

Type registration
-----------------
:func:`register_wire_type` assigns each dataclass a stable numeric id.  All
message types from :mod:`repro.core.common.messages` are registered here (ids
derived from their position in ``WIRE_MESSAGES``); runtime-internal types
(addresses, envelopes, control-plane messages, checker records) register
themselves in their defining modules.  Registration happens at import time in
deterministic order, so every process of a cluster agrees on the id space.

Sequences decode as tuples (the message dataclasses use tuples throughout),
which is what makes ``decode(encode(msg)) == msg`` hold exactly.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import sys
from array import array
from itertools import chain, repeat
from typing import Any, Optional

from repro.core.common import messages as _messages
from repro.errors import WireFormatError
from repro.wire.intern import intern_key

#: First byte of every frame.
MAGIC = 0xA7
#: Current wire version; bumped on every payload-layout change.
WIRE_VERSION = 3
#: Every version this codec can decode: every peer of a run is started from
#: the same tree, so there is exactly one, and anything else is rejected.
SUPPORTED_WIRE_VERSIONS = (WIRE_VERSION,)
#: Format tags (third header byte).
FORMAT_BINARY = 0x01
FORMAT_JSON = 0x02
#: Batch frames (wire v3+): N envelopes coalesced into one flush, with
#: homogeneous runs encoded column-wise (see :mod:`repro.wire.batch`).
FORMAT_BATCH = 0x03

_FORMATS = {"binary": FORMAT_BINARY, "json": FORMAT_JSON}

# Binary type tags (msgpack-inspired; fix-ranges inline small values).
_NIL = 0xC0
_FALSE = 0xC2
_TRUE = 0xC3
_BIN8 = 0xC4
_BIN16 = 0xC5
_BIN32 = 0xC6
_BIGINT = 0xC7          # 1-byte length + signed big-endian two's complement
_FLOAT64 = 0xCB
_INT64 = 0xD3           # 8-byte signed big-endian
_STRUCT = 0xD8          # 2-byte type id + field-value array
_STR8 = 0xD9
_STR16 = 0xDA
_STR32 = 0xDB
_ARR16 = 0xDC
_ARR32 = 0xDD
_MAP16 = 0xDE
_MAP32 = 0xDF
_FIXSTR = 0xA0          # 0xA0..0xBF: str, length in low 5 bits
_FIXARR = 0x90          # 0x90..0x9F: array, length in low 4 bits
_FIXMAP = 0x80          # 0x80..0x8F: map, length in low 4 bits

_pack_u16 = struct.Struct(">H").pack
_pack_u32 = struct.Struct(">I").pack
_pack_i64 = struct.Struct(">q").pack
_pack_f64 = struct.Struct(">d").pack
_unpack_u16 = struct.Struct(">H").unpack_from
_unpack_u32 = struct.Struct(">I").unpack_from
_unpack_i64 = struct.Struct(">q").unpack_from
_unpack_f64 = struct.Struct(">d").unpack_from


# --------------------------------------------------------------------------
# Type registry
# --------------------------------------------------------------------------

#: Dynamic registrations start here; ids below are reserved for the built-in
#: message set so the two ranges can grow independently.
DYNAMIC_TYPE_ID_BASE = 1024

_CLASS_TO_ID: dict[type, int] = {}
_ID_TO_CLASS: dict[int, type] = {}
_NAME_TO_CLASS: dict[str, type] = {}
_FIELDS: dict[type, tuple[str, ...]] = {}
_next_dynamic_id = DYNAMIC_TYPE_ID_BASE


def register_wire_type(cls: type, *, type_id: Optional[int] = None) -> type:
    """Register a dataclass for wire encoding under a stable numeric id.

    Without an explicit ``type_id`` the next free dynamic id is assigned;
    since registration runs at import time in deterministic module order,
    every process derives the same id space.  Returns ``cls`` so the function
    doubles as a decorator.  Re-registering the same class is a no-op;
    claiming an id or name another class holds raises
    :class:`~repro.errors.WireFormatError`.
    """
    global _next_dynamic_id
    if not dataclasses.is_dataclass(cls):
        raise WireFormatError(f"{cls!r} is not a dataclass")
    if cls in _CLASS_TO_ID:
        return cls
    if type_id is None:
        type_id = _next_dynamic_id
        _next_dynamic_id += 1
    if type_id in _ID_TO_CLASS:
        raise WireFormatError(
            f"wire type id {type_id} already taken by "
            f"{_ID_TO_CLASS[type_id].__name__}")
    name = cls.__name__
    if name in _NAME_TO_CLASS:
        raise WireFormatError(f"wire type name {name!r} already registered")
    _CLASS_TO_ID[cls] = type_id
    _ID_TO_CLASS[type_id] = cls
    _NAME_TO_CLASS[name] = cls
    _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return cls


def registered_wire_types() -> tuple[type, ...]:
    """Every registered class, in ascending type-id order."""
    return tuple(cls for _tid, cls in sorted(_ID_TO_CLASS.items()))


for _index, _cls in enumerate(_messages.WIRE_MESSAGES):
    register_wire_type(_cls, type_id=_index)


# --------------------------------------------------------------------------
# Binary encoding
# --------------------------------------------------------------------------

def _encode_value(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_NIL)
    elif value is True:
        out.append(_TRUE)
    elif value is False:
        out.append(_FALSE)
    elif type(value) is int:
        if 0 <= value <= 0x7F:
            out.append(value)
        elif -32 <= value < 0:
            out.append(value & 0xFF)
        elif -(2 ** 63) <= value < 2 ** 63:
            out.append(_INT64)
            out += _pack_i64(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big",
                                 signed=True)
            if len(raw) > 255:
                raise WireFormatError("integer too large for the wire")
            out.append(_BIGINT)
            out.append(len(raw))
            out += raw
    elif type(value) is float:
        out.append(_FLOAT64)
        out += _pack_f64(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        n = len(raw)
        if n < 32:
            out.append(_FIXSTR | n)
        elif n < 256:
            out.append(_STR8)
            out.append(n)
        elif n < 65536:
            out.append(_STR16)
            out += _pack_u16(n)
        else:
            out.append(_STR32)
            out += _pack_u32(n)
        out += raw
    elif type(value) is bytes:
        n = len(value)
        if n < 256:
            out.append(_BIN8)
            out.append(n)
        elif n < 65536:
            out.append(_BIN16)
            out += _pack_u16(n)
        else:
            out.append(_BIN32)
            out += _pack_u32(n)
        out += value
    elif type(value) in (tuple, list):
        n = len(value)
        if n < 16:
            out.append(_FIXARR | n)
        elif n < 65536:
            out.append(_ARR16)
            out += _pack_u16(n)
        else:
            out.append(_ARR32)
            out += _pack_u32(n)
        for item in value:
            _encode_value(item, out)
    elif type(value) is dict:
        n = len(value)
        if n < 16:
            out.append(_FIXMAP | n)
        elif n < 65536:
            out.append(_MAP16)
            out += _pack_u16(n)
        else:
            out.append(_MAP32)
            out += _pack_u32(n)
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    else:
        type_id = _CLASS_TO_ID.get(type(value))
        if type_id is None:
            raise WireFormatError(
                f"cannot encode {type(value).__name__!r}: not a registered "
                f"wire type (see repro.wire.register_wire_type)")
        out.append(_STRUCT)
        out += _pack_u16(type_id)
        _encode_value(tuple(getattr(value, name)
                            for name in _FIELDS[type(value)]), out)


class _Reader:
    """Cursor over a frame payload with bounds-checked reads."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireFormatError(
                f"truncated frame: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise WireFormatError("truncated frame: ran out of bytes")
        value = self.data[self.pos]
        self.pos += 1
        return value


def _decode_value(reader: _Reader) -> Any:
    tag = reader.byte()
    if tag <= 0x7F:
        return tag
    if tag >= 0xE0:
        return tag - 256
    if tag == _NIL:
        return None
    if tag == _TRUE:
        return True
    if tag == _FALSE:
        return False
    if tag == _INT64:
        return _unpack_i64(reader.take(8))[0]
    if tag == _BIGINT:
        length = reader.byte()
        return int.from_bytes(reader.take(length), "big", signed=True)
    if tag == _FLOAT64:
        return _unpack_f64(reader.take(8))[0]
    if _FIXSTR <= tag <= 0xBF:
        return reader.take(tag & 0x1F).decode("utf-8")
    if tag == _STR8:
        return reader.take(reader.byte()).decode("utf-8")
    if tag == _STR16:
        return reader.take(_unpack_u16(reader.take(2))[0]).decode("utf-8")
    if tag == _STR32:
        return reader.take(_unpack_u32(reader.take(4))[0]).decode("utf-8")
    if tag == _BIN8:
        return reader.take(reader.byte())
    if tag == _BIN16:
        return reader.take(_unpack_u16(reader.take(2))[0])
    if tag == _BIN32:
        return reader.take(_unpack_u32(reader.take(4))[0])
    if _FIXARR <= tag <= 0x9F:
        return tuple(_decode_value(reader) for _ in range(tag & 0x0F))
    if tag == _ARR16:
        n = _unpack_u16(reader.take(2))[0]
        return tuple(_decode_value(reader) for _ in range(n))
    if tag == _ARR32:
        n = _unpack_u32(reader.take(4))[0]
        return tuple(_decode_value(reader) for _ in range(n))
    if _FIXMAP <= tag <= 0x8F:
        return {_decode_value(reader): _decode_value(reader)
                for _ in range(tag & 0x0F)}
    if tag == _MAP16:
        n = _unpack_u16(reader.take(2))[0]
        return {_decode_value(reader): _decode_value(reader)
                for _ in range(n)}
    if tag == _MAP32:
        n = _unpack_u32(reader.take(4))[0]
        return {_decode_value(reader): _decode_value(reader)
                for _ in range(n)}
    if tag == _STRUCT:
        type_id = _unpack_u16(reader.take(2))[0]
        cls = _ID_TO_CLASS.get(type_id)
        if cls is None:
            raise WireFormatError(f"unknown wire type id {type_id}")
        values = _decode_value(reader)
        if not isinstance(values, tuple):
            raise WireFormatError(
                f"struct {cls.__name__} payload is not a field array")
        names = _FIELDS[cls]
        if len(values) != len(names):
            raise WireFormatError(
                f"struct {cls.__name__} carries {len(values)} fields, "
                f"expected {len(names)}")
        try:
            return cls(*values)
        except (TypeError, ValueError) as exc:
            raise WireFormatError(
                f"cannot reconstruct {cls.__name__}: {exc}") from exc
    raise WireFormatError(f"unknown binary tag 0x{tag:02X}")


# --------------------------------------------------------------------------
# JSON debug encoding
# --------------------------------------------------------------------------

def _jsonify(value: Any) -> Any:
    if value is None or type(value) in (bool, int, float, str):
        return value
    if type(value) is bytes:
        return {"__bytes__": value.hex()}
    if type(value) in (tuple, list):
        return [_jsonify(item) for item in value]
    if type(value) is dict:
        return {"__map__": [[_jsonify(k), _jsonify(v)]
                            for k, v in value.items()]}
    cls = type(value)
    if cls not in _CLASS_TO_ID:
        raise WireFormatError(
            f"cannot encode {cls.__name__!r}: not a registered wire type "
            f"(see repro.wire.register_wire_type)")
    return {"__wire__": cls.__name__,
            "fields": {name: _jsonify(getattr(value, name))
                       for name in _FIELDS[cls]}}


def _dejsonify(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return tuple(_dejsonify(item) for item in value)
    if isinstance(value, dict):
        if "__bytes__" in value:
            return bytes.fromhex(value["__bytes__"])
        if "__map__" in value:
            return {_dejsonify(k): _dejsonify(v)
                    for k, v in value["__map__"]}
        if "__wire__" in value:
            cls = _NAME_TO_CLASS.get(value["__wire__"])
            if cls is None:
                raise WireFormatError(
                    f"unknown wire type name {value['__wire__']!r}")
            fields = value.get("fields", {})
            names = _FIELDS[cls]
            if set(fields) != set(names):
                raise WireFormatError(
                    f"struct {cls.__name__} field mismatch: "
                    f"{sorted(fields)} != {sorted(names)}")
            try:
                return cls(**{name: _dejsonify(fields[name])
                              for name in names})
            except (TypeError, ValueError) as exc:
                raise WireFormatError(
                    f"cannot reconstruct {cls.__name__}: {exc}") from exc
        raise WireFormatError(
            f"malformed JSON wire object with keys {sorted(value)}")
    raise WireFormatError(f"unencodable JSON value {value!r}")


# --------------------------------------------------------------------------
# Columnar struct arrays (wire v3)
# --------------------------------------------------------------------------
# A *struct array* encodes N instances of one registered dataclass column by
# column instead of instance by instance.  Per column the encoder picks the
# cheapest of six layouts; the decoder reconstructs instances with one
# ``map(cls, *columns)`` sweep.  Integer columns are raw little-endian int64
# arrays read back through ``array.frombytes`` over a ``memoryview`` (no
# per-value tag dispatch, no intermediate copies); string columns are one
# UTF-8 blob plus a uint16 length array, decoded straight off the
# ``memoryview`` and interned for key-shaped fields.
#
#     struct_array := u16 type_id, u32 count, u8 n_fields, column...
#     column       := u8 kind, payload
#       KIND_GENERIC 0: count standard-encoded values
#       KIND_CONST   1: one standard-encoded value (all N are equal)
#       KIND_I64     2: count * 8 bytes, little-endian signed
#       KIND_STR     3: count * u16 UTF-8 lengths (LE), then the blob
#       KIND_ITUP    4: u16 tuple length L, then count * L int64 (LE)
#       KIND_STRUCT  5: a nested struct array (same count)

KIND_GENERIC = 0
KIND_CONST = 1
KIND_I64 = 2
KIND_STR = 3
KIND_ITUP = 4
KIND_STRUCT = 5

#: Upper bound on one struct array's element count (also the upper bound on
#: envelopes per batch frame; a prefix beyond it means corruption).
MAX_STRUCT_ARRAY = 1 << 16

#: Fields whose decoded strings are interned (bounded key/writer spaces;
#: trace ids and ROT ids are unique per operation and must stay out of the
#: intern cache).
_INTERNED_FIELDS = frozenset({"key", "put_key", "writer"})

_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63
_IS_LITTLE_ENDIAN = sys.byteorder == "little"
_SCALARS = (int, float, str, bytes)


def _column_kind(values: list) -> int:
    """Pick the cheapest lossless column layout for ``values``."""
    first = values[0]
    first_type = type(first)
    if first is None or first_type in (bool, *_SCALARS):
        # Constant folding compares types too: 0 == 0.0 and (1,) == (1.0,)
        # are Python-equal but decode to different objects.
        if all(type(v) is first_type and v == first for v in values):
            return KIND_CONST
    elif all(v is first for v in values):
        return KIND_CONST
    if first_type is int:
        if all(type(v) is int and _I64_MIN <= v < _I64_MAX for v in values):
            return KIND_I64
        return KIND_GENERIC
    if first_type is str:
        if all(type(v) is str for v in values):
            return KIND_STR
        return KIND_GENERIC
    if first_type is tuple and first:
        length = len(first)
        if all(type(v) is tuple and len(v) == length
               and all(type(item) is int and _I64_MIN <= item < _I64_MAX
                       for item in v)
               for v in values):
            return KIND_ITUP
        return KIND_GENERIC
    if first_type in _CLASS_TO_ID:
        if all(type(v) is first_type for v in values):
            return KIND_STRUCT
    return KIND_GENERIC


def encode_struct_array(values: list, out: bytearray) -> None:
    """Append the struct-array encoding of ``values`` (same-type, >= 1)."""
    cls = type(values[0])
    type_id = _CLASS_TO_ID.get(cls)
    if type_id is None:
        raise WireFormatError(
            f"cannot encode {cls.__name__!r}: not a registered wire type "
            f"(see repro.wire.register_wire_type)")
    count = len(values)
    if count > MAX_STRUCT_ARRAY:
        raise WireFormatError(
            f"struct array of {count} {cls.__name__} elements exceeds the "
            f"{MAX_STRUCT_ARRAY}-element limit")
    names = _FIELDS[cls]
    out += _pack_u16(type_id)
    out += _pack_u32(count)
    out.append(len(names))
    for name in names:
        column = [getattr(v, name) for v in values]
        kind = _column_kind(column)
        out.append(kind)
        if kind == KIND_CONST:
            _encode_value(column[0], out)
        elif kind == KIND_I64:
            out += struct.pack(f"<{count}q", *column)
        elif kind == KIND_STR:
            blobs = [v.encode("utf-8") for v in column]
            if any(len(blob) > 0xFFFF for blob in blobs):
                out[-1] = KIND_GENERIC
                for value in column:
                    _encode_value(value, out)
                continue
            out += struct.pack(f"<{count}H", *map(len, blobs))
            for blob in blobs:
                out += blob
        elif kind == KIND_ITUP:
            length = len(column[0])
            out += _pack_u16(length)
            out += struct.pack(f"<{count * length}q",
                               *chain.from_iterable(column))
        elif kind == KIND_STRUCT:
            encode_struct_array(column, out)
        else:
            for value in column:
                _encode_value(value, out)


def _take_i64_array(mv: memoryview, pos: int, count: int) -> tuple[array, int]:
    end = pos + count * 8
    if end > len(mv):
        raise WireFormatError(
            f"truncated struct array: int64 column needs {count * 8} bytes "
            f"at offset {pos}, have {len(mv) - pos}")
    values = array("q")
    values.frombytes(mv[pos:end])
    if not _IS_LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        values.byteswap()
    return values, end


def decode_struct_array(data, mv: memoryview, pos: int) -> tuple[list, int]:
    """Decode one struct array at ``pos``; returns ``(instances, new_pos)``.

    ``data`` is the underlying buffer (for the generic-column fallback
    decoder); ``mv`` a memoryview over it, so integer and string columns
    come straight off the receive buffer without intermediate copies.
    """
    if pos + 7 > len(mv):
        raise WireFormatError("truncated struct array header")
    type_id = _unpack_u16(mv, pos)[0]
    count = _unpack_u32(mv, pos + 2)[0]
    n_fields = mv[pos + 6]
    pos += 7
    cls = _ID_TO_CLASS.get(type_id)
    if cls is None:
        raise WireFormatError(f"unknown wire type id {type_id}")
    if count == 0:
        raise WireFormatError(
            f"empty struct array of {cls.__name__} (count must be >= 1)")
    if count > MAX_STRUCT_ARRAY:
        raise WireFormatError(
            f"struct array count {count} exceeds the "
            f"{MAX_STRUCT_ARRAY}-element limit (corrupt frame?)")
    names = _FIELDS[cls]
    if n_fields != len(names):
        raise WireFormatError(
            f"struct array of {cls.__name__} carries {n_fields} columns, "
            f"expected {len(names)}")
    columns = []
    for name in names:
        if pos >= len(mv):
            raise WireFormatError("truncated struct array column header")
        kind = mv[pos]
        pos += 1
        if kind == KIND_CONST:
            reader = _Reader(data, pos)
            value = _decode_value(reader)
            pos = reader.pos
            if name in _INTERNED_FIELDS and type(value) is str:
                value = intern_key(value)
            columns.append(repeat(value, count))
        elif kind == KIND_I64:
            values, pos = _take_i64_array(mv, pos, count)
            columns.append(values)
        elif kind == KIND_STR:
            lengths, end = pos + 2 * count, 0
            if lengths > len(mv):
                raise WireFormatError("truncated struct array string column")
            sizes = array("H")
            sizes.frombytes(mv[pos:lengths])
            if not _IS_LITTLE_ENDIAN:  # pragma: no cover
                sizes.byteswap()
            pos, end = lengths, lengths + sum(sizes)
            if end > len(mv):
                raise WireFormatError("truncated struct array string blob")
            strings: list[str] = []
            if name in _INTERNED_FIELDS:
                for size in sizes:
                    strings.append(intern_key(str(mv[pos:pos + size],
                                                  "utf-8")))
                    pos += size
            else:
                for size in sizes:
                    strings.append(str(mv[pos:pos + size], "utf-8"))
                    pos += size
            columns.append(strings)
        elif kind == KIND_ITUP:
            if pos + 2 > len(mv):
                raise WireFormatError("truncated struct array tuple column")
            length = _unpack_u16(mv, pos)[0]
            values, pos = _take_i64_array(mv, pos + 2, count * length)
            it = iter(values)
            columns.append([tuple(row) for row in zip(*([it] * length))])
        elif kind == KIND_STRUCT:
            values, pos = decode_struct_array(data, mv, pos)
            columns.append(values)
        elif kind == KIND_GENERIC:
            reader = _Reader(data, pos)
            columns.append([_decode_value(reader) for _ in range(count)])
            pos = reader.pos
        else:
            raise WireFormatError(
                f"unknown struct array column kind {kind} "
                f"(field {cls.__name__}.{name})")
    try:
        return list(map(cls, *columns)), pos
    except (TypeError, ValueError) as exc:
        raise WireFormatError(
            f"cannot reconstruct {cls.__name__} column-wise: {exc}") from exc


# --------------------------------------------------------------------------
# Frame API
# --------------------------------------------------------------------------

#: Lazily bound :func:`repro.wire.batch.decode_batch_payload` (the batch
#: module imports this one, so the binding happens on first batch decode).
_decode_batch = None


def encode(value: Any, *, format: str = "binary") -> bytes:
    """Encode ``value`` into a self-contained frame body.

    ``format`` is ``"binary"`` (compact, default) or ``"json"`` (debug).
    """
    try:
        format_tag = _FORMATS[format]
    except KeyError:
        raise WireFormatError(
            f"unknown wire format {format!r}; known: "
            f"{sorted(_FORMATS)}") from None
    out = bytearray((MAGIC, WIRE_VERSION, format_tag))
    if format_tag == FORMAT_BINARY:
        _encode_value(value, out)
    else:
        out += json.dumps(_jsonify(value), separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
    return bytes(out)


def decode(data: bytes) -> Any:
    """Decode one frame body produced by :func:`encode` (either format)."""
    if len(data) < 3:
        raise WireFormatError(
            f"frame too short ({len(data)} bytes); need at least the "
            f"3-byte header")
    if data[0] != MAGIC:
        raise WireFormatError(
            f"bad frame magic 0x{data[0]:02X} (expected 0x{MAGIC:02X})")
    if data[1] not in SUPPORTED_WIRE_VERSIONS:
        raise WireFormatError(
            f"unsupported wire version {data[1]} (this codec speaks "
            f"versions {SUPPORTED_WIRE_VERSIONS})")
    format_tag = data[2]
    if format_tag == FORMAT_BINARY:
        reader = _Reader(data, 3)
        value = _decode_value(reader)
        if reader.pos != len(data):
            raise WireFormatError(
                f"{len(data) - reader.pos} trailing bytes after the "
                f"frame payload")
        return value
    if format_tag == FORMAT_BATCH:
        global _decode_batch
        if _decode_batch is None:
            from repro.wire.batch import decode_batch_payload
            _decode_batch = decode_batch_payload
        return _decode_batch(data)
    if format_tag == FORMAT_JSON:
        try:
            payload = json.loads(data[3:].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"malformed JSON frame: {exc}") from exc
        return _dejsonify(payload)
    raise WireFormatError(f"unknown wire format tag 0x{format_tag:02X}")


__all__ = [
    "DYNAMIC_TYPE_ID_BASE",
    "FORMAT_BATCH",
    "FORMAT_BINARY",
    "FORMAT_JSON",
    "MAGIC",
    "MAX_STRUCT_ARRAY",
    "SUPPORTED_WIRE_VERSIONS",
    "WIRE_VERSION",
    "decode",
    "decode_struct_array",
    "encode",
    "encode_struct_array",
    "register_wire_type",
    "registered_wire_types",
]

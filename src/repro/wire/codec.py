"""Versioned wire codec: one compiled pack/unpack closure per registered type.

Every value that crosses a process boundary is encoded into a *frame body*::

    [magic 0xA7] [wire version 5] [format tag] [payload ...]

Three payload formats share that header:

* **binary** (:data:`FORMAT_BINARY`, the default) — one *tagged value*.
* **batch** (:data:`FORMAT_BATCH`) — ``[u32 count]`` followed by ``count``
  tagged values, written row by row (see :mod:`repro.wire.batch`).
* **JSON debug** (:data:`FORMAT_JSON`) — the same object graph rendered as
  human-readable JSON (``{"__wire__": "VectorPutRequest", "fields": {...}}``)
  for protocol debugging; byte-for-byte bigger, value-for-value identical
  after decoding.

A tagged value is a msgpack-style tag byte plus payload.  Plain values
(``None``, bools, ints, floats, strings, bytes, sequences, dicts) are written
by a small generic walker.  A registered dataclass is ``[0xD8] [u16 type id]``
followed by the *body* its type's compiled packer writes — no per-field tags,
everything big-endian:

* one fixed-width ``struct`` block holding, in field order, every ``int``
  (``q``), ``float`` (``d``) and ``bool`` (``?``), a ``?`` presence flag in
  front of each ``Optional`` one, and one *length byte* for every
  variable-width field: its byte length or element count below 254, 254 for
  ``None`` (``Optional`` fields only), 255 when a ``u32`` length precedes
  the field's tail instead;
* then the variable tails, in field order: UTF-8/raw bytes for ``str`` /
  ``bytes``; ``count * 8`` bytes for ``tuple[int, ...]`` / ``tuple[float,
  ...]``; ``[length byte][bytes]`` per element of ``tuple[str, ...]``;
  ``[length byte][q][q?][bytes]`` per row of ``tuple[tuple[str, int[, int]],
  ...]``; the bodies of a ``tuple[T, ...]`` of one registered type ``T``;
  and a tagged value for every field the planner does not recognise
  (``Envelope.payload``, address unions, ``TraceEvent.data``, lists, dicts).

The layout of a type is *planned* once from its type hints
(:func:`field_plan`) and compiled into two closures — ``pack(obj, out)`` and
``unpack(data, pos) -> (obj, pos)`` — the first time the type is encoded or
decoded; importing this module generates nothing.

Decoding does no per-read bounds checks: a count is compared with the bytes
that remain before anything is sized by it, and everything else a malformed
frame can trigger (``struct.error``, ``IndexError``, bad UTF-8, a constructor
rejecting its arguments) is converted to
:class:`~repro.errors.WireFormatError` at the frame boundary, where the final
position must equal the frame length.  A value that contradicts its field's
annotation (or an int outside int64) fails the same way at encode.

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
from typing import (
    Any,
    Callable,
    NamedTuple,
    Optional,
    Sequence,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.core.common import messages as _messages
from repro.errors import WireFormatError
from repro.wire.intern import intern_key

#: First byte of every frame.
MAGIC = 0xA7
#: Current wire version; bumped on every payload-layout change.
WIRE_VERSION = 5
#: Every version this codec can decode: every peer of a run is started from
#: the same tree, so there is exactly one, and anything else is rejected.
SUPPORTED_WIRE_VERSIONS = (WIRE_VERSION,)
#: Format tags (third header byte).
FORMAT_BINARY = 0x01
FORMAT_JSON = 0x02
FORMAT_BATCH = 0x03

_FORMATS = {"binary": FORMAT_BINARY, "json": FORMAT_JSON}

# Tags of the generic value walker (msgpack-inspired; fix-ranges inline
# small values).
_NIL = 0xC0
_FALSE = 0xC2
_TRUE = 0xC3
_BIN8 = 0xC4
_BIN16 = 0xC5
_BIN32 = 0xC6
_BIGINT = 0xC7          # 1-byte length + signed big-endian two's complement
_FLOAT64 = 0xCB
_INT64 = 0xD3           # 8-byte signed big-endian
_STRUCT = 0xD8          # 2-byte type id + the type's compiled body
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
_unpack_u8 = struct.Struct(">B").unpack_from
_unpack_u16 = struct.Struct(">H").unpack_from
_unpack_u32 = struct.Struct(">I").unpack_from
_unpack_i64 = struct.Struct(">q").unpack_from
_unpack_f64 = struct.Struct(">d").unpack_from

#: What a malformed frame may raise while being decoded, and a mistyped
#: value while being encoded; both surface as ``WireFormatError``.
_DECODE_ERRORS = (struct.error, IndexError, ValueError, TypeError,
                  RecursionError)
_ENCODE_ERRORS = (struct.error, AttributeError, ValueError, TypeError,
                  OverflowError, RecursionError)


@dataclasses.dataclass(frozen=True)
class BatchFrame:
    """The decoded form of one batch frame: the coalesced envelopes, in
    send order.  Transports fan these back out to per-node delivery."""

    envelopes: tuple

    def __len__(self) -> int:
        return len(self.envelopes)


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

#: Compiled codecs, filled on a type's first use: class -> (prefix, pack)
#: and prefix -> unpack, where prefix is the struct tag + type id bytes.
_PACKERS: dict[type, tuple[bytes, Callable]] = {}
_UNPACKERS: dict[bytes, Callable] = {}


def _struct_prefix(type_id: int) -> bytes:
    return bytes((_STRUCT,)) + _pack_u16(type_id)


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
# Field plans
# --------------------------------------------------------------------------

class FieldKind(NamedTuple):
    """How one dataclass field is laid out.

    ``base`` is ``int``/``bool``/``float``/``str``/``bytes`` (a scalar),
    ``ints``/``floats``/``strs`` (a homogeneous tuple), ``rows`` (a tuple of
    ``(str, int[, int])``; ``arg`` is the number of ints), ``structs`` (a
    tuple of the registered type ``arg``) or ``value`` (anything else: a
    tagged value).  ``optional`` scalars and tuples may also be ``None``.
    """

    base: str
    optional: bool = False
    arg: Any = None


_VALUE = FieldKind("value")
_SCALAR_CODES = {"int": "q", "bool": "?", "float": "d"}
_ROW_SHAPES = {(str, int): 1, (str, int, int): 2}

#: ``str`` fields whose decoded values are interned (bounded key/writer
#: spaces; trace ids and ROT ids are unique per operation and must stay out
#: of the intern cache).
_INTERNED_FIELDS = frozenset({"key", "put_key", "writer"})
#: Types with a small closed value space (a cluster's addresses), decoded
#: through a per-type cache so a frame does not construct them again.
_CACHED_TYPES = frozenset({"ServerAddr", "ClientAddr"})
_MAX_CACHED_INSTANCES = 4096


def _plan_field(annotation: Any) -> FieldKind:
    optional = False
    args = get_args(annotation)
    if (get_origin(annotation) is Union and len(args) == 2
            and type(None) in args):
        annotation = args[0] if args[1] is type(None) else args[1]
        optional = True
        args = get_args(annotation)
    if annotation in (int, bool, float, str, bytes):
        return FieldKind(annotation.__name__, optional)
    if (get_origin(annotation) is tuple and len(args) == 2
            and args[1] is Ellipsis):
        element = args[0]
        if element in (int, float, str):
            return FieldKind(element.__name__ + "s", optional)
        if not optional and element in _CLASS_TO_ID:
            return FieldKind("structs", arg=element)
        if not optional and get_args(element) in _ROW_SHAPES:
            return FieldKind("rows", arg=_ROW_SHAPES[get_args(element)])
    return _VALUE


def field_plan(cls: type) -> tuple[tuple[str, FieldKind], ...]:
    """``(field name, FieldKind)`` for every field of a registered class.

    This is the one description of a type's binary layout: the codec
    compiles it, and the round-trip tests build their value strategies from
    it.  Annotations that cannot be resolved (a dataclass local to a
    function) plan as ``value`` fields.
    """
    try:
        hints = get_type_hints(cls)
    except (NameError, TypeError, SyntaxError):
        hints = {}
    return tuple((name, _plan_field(hints.get(name)))
                 for name in _FIELDS[cls])


# --------------------------------------------------------------------------
# Code generation
# --------------------------------------------------------------------------

class _VectorStructs(dict):
    """``count -> Struct(">{count}{code}")``; short vectors (dependency and
    version vectors have one entry per DC) stay cached."""

    def __init__(self, code: str) -> None:
        super().__init__()
        self.code = code

    def __missing__(self, count: int) -> struct.Struct:
        packer = struct.Struct(f">{count}{self.code}")
        if count <= 64:
            self[count] = packer
        return packer


def _short(what: str, count: int) -> WireFormatError:
    return WireFormatError(
        f"truncated frame: {what} announces {count} elements, more than "
        f"the bytes that remain")


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _read_length(n: str) -> list[str]:
    """Decode statements resolving length byte ``n``: 255 announces a u32."""
    return [f"if {n} == 255:", f"    {n} = U32(data, pos)[0]", "    pos += 4"]


def _read_sized(optional: bool, n: str, v: str, body: list[str],
                empty: Optional[str]) -> list[str]:
    """The decode statements of a variable-width field around ``body``:
    ``None`` at length byte 254 when ``optional``, ``empty`` (if given) at
    length zero."""
    if empty is not None:
        body = [f"if {n}:", *_indent(body), "else:", f"    {v} = {empty}"]
    body = _read_length(n) + body
    if optional:
        body = [f"if {n} == 254:", f"    {v} = None", "else:", *_indent(body)]
    return body


def _compile(cls: type) -> tuple[bytes, Callable]:
    """Generate and install ``cls``'s pack and unpack closures; returns its
    ``_PACKERS`` entry."""
    type_id = _CLASS_TO_ID.get(cls)
    if type_id is None:
        raise WireFormatError(
            f"cannot encode {cls.__name__!r}: not a registered wire type "
            f"(see repro.wire.register_wire_type)")
    namespace: dict[str, Any] = {
        "cls": cls, "short": _short, "intern": intern_key,
        "PACKERS": _PACKERS, "UNPACKERS": _UNPACKERS,
        "packer": _packer, "unpacker": _unpacker,
        "encode_value": _encode_value, "decode_value": _decode_value,
        "U32": _unpack_u32, "P32": _pack_u32,
        "VQ": _INT_VECTORS, "VD": _FLOAT_VECTORS,
    }
    fmt = ">"           # the fixed block's struct format
    pre: list[str] = []     # encode: statements before the fixed block
    packed: list[str] = []  # encode: the fixed block's arguments
    tails: list[str] = []   # encode: variable tails
    names: list[str] = []   # decode: targets of the fixed block
    reads: list[str] = []   # decode: variable tails
    ctor: list[str] = []    # decode: constructor arguments

    for i, (name, kind) in enumerate(field_plan(cls)):
        v, n, r = f"v{i}", f"n{i}", f"r{i}"
        base, optional = kind.base, kind.optional
        label = repr(f"{cls.__name__}.{name}")
        ctor.append(v)
        if base == "value":
            tails += [f"{v} = o.{name}",
                      f"e = PACKERS.get(type({v}))",
                      "if e is None:",
                      f"    encode_value({v}, out)",
                      "else:",
                      "    out += e[0]",
                      f"    e[1]({v}, out)"]
            reads += ["d = UNPACKERS.get(data[pos:pos + 3])",
                      "if d is None:",
                      f"    {v}, pos = decode_value(data, pos)",
                      "else:",
                      f"    {v}, pos = d(data, pos + 3)"]
            continue
        if base in _SCALAR_CODES:
            if optional or base == "bool":
                pre.append(f"{v} = o.{name}")
            if base == "bool":  # struct's "?" would coerce any truthy value
                unset = f" and {v} is not None" if optional else ""
                pre += [f"if {v} is not True and {v} is not False{unset}:",
                        f"    raise TypeError({label} + ' is not a bool')"]
            if optional:
                fmt += "?" + _SCALAR_CODES[base]
                packed += [f"{v} is not None", f"0 if {v} is None else {v}"]
                names += [n, v]
                ctor[-1] = f"{v} if {n} else None"
            else:
                fmt += _SCALAR_CODES[base]
                packed.append(v if base == "bool" else f"o.{name}")
                names.append(v)
            continue
        # Variable width: one length byte in the fixed block — the length
        # below 254, 254 for None, 255 announcing a u32 ahead of the tail.
        fmt += "B"
        names.append(n)
        pre.append(f"{v} = o.{name}")
        sized = r if base in ("str", "bytes") else v
        if base == "str":
            pre.append(f'{r} = b"" if {v} is None else {v}.encode()'
                       if optional else f"{r} = {v}.encode()")
        elif base == "bytes":
            pre += [f'{r} = b"" if {v} is None else {v}' if optional
                    else f"{r} = {v}",
                    f"if type({r}) is not bytes:",
                    f"    raise TypeError({label} + ' is not bytes')"]
        if optional:
            pre.append(f"{n} = -1 if {v} is None else len({sized})")
            packed.append(f"254 if {n} < 0 else {n} if {n} < 254 else 255")
        else:
            pre.append(f"{n} = len({sized})")
            packed.append(f"{n} if {n} < 254 else 255")
        tails += [f"if {n} >= 254:", f"    out += P32({n})"]
        if base in ("str", "bytes"):
            value = "data[pos:end]" + (".decode()" if base == "str" else "")
            if name in _INTERNED_FIELDS and base == "str" and not optional:
                value = f"intern({value})"
            tails.append(f"out += {r}")
            reads += _read_sized(optional, n, v, [
                f"end = pos + {n}", f"{v} = {value}", "pos = end"], None)
            continue
        if base in ("ints", "floats"):
            table = "VQ" if base == "ints" else "VD"
            tails += [f"if {n} > 0:", f"    out += {table}[{n}].pack(*{v})"]
            body = [f"if {n} > (len(data) - pos) >> 3:",
                    f"    raise short({label}, {n})",
                    f"{v} = {table}[{n}].unpack_from(data, pos)",
                    f"pos += {n} << 3"]
        elif base in ("strs", "rows"):  # strings with ``kind.arg`` ints each
            row = struct.Struct(">B" + "q" * (kind.arg or 0))
            namespace[f"ROW{i}"] = row
            ints = "".join(f", {c}" for c in "ab"[:kind.arg or 0])
            byte = "m if m < 254 else 255"
            tails += [f"for s{ints} in {v} or ():",
                      "    r = s.encode()",
                      "    m = len(r)",
                      f"    out += ROW{i}.pack({byte}{ints})" if ints
                      else f"    out.append({byte})",
                      "    if m >= 254:",
                      "        out += P32(m)",
                      "    out += r"]
            body = [f"if {n} > (len(data) - pos) // {row.size}:",
                    f"    raise short({label}, {n})",
                    "items = []",
                    f"for _ in range({n}):",
                    f"    m{ints} = ROW{i}.unpack_from(data, pos)" if ints
                    else "    m = data[pos]",
                    f"    pos += {row.size}",
                    *_indent(_read_length("m")),
                    "    end = pos + m",
                    f"    items.append((data[pos:end].decode(){ints}))",
                    "    pos = end",
                    f"{v} = tuple(items)"]
        else:  # structs: looked up per call, so element types compile lazily
            namespace[f"T{i}"] = kind.arg
            tails += [f"if {n}:",
                      f"    p = packer(T{i})[1]",
                      f"    for x in {v}:",
                      "        p(x, out)"]
            body = [f"if {n} > len(data) - pos:",
                    f"    raise short({label}, {n})",
                    f"d = unpacker({_struct_prefix(_CLASS_TO_ID[kind.arg])})",
                    "items = []",
                    f"for _ in range({n}):",
                    "    x, pos = d(data, pos)",
                    "    items.append(x)",
                    f"{v} = tuple(items)"]
        reads += _read_sized(optional, n, v, body, "()")

    fixed = struct.Struct(fmt)
    namespace["S"] = fixed
    if names:
        pre.append(f"out += S.pack({', '.join(packed)})")
        reads = [f"{', '.join(names)}, = S.unpack_from(data, pos)",
                 f"pos += {fixed.size}", *reads]
    if cls.__name__ in _CACHED_TYPES:
        namespace["CACHE"] = {}
        build = [f"key = ({', '.join(ctor)},)",
                 "obj = CACHE.get(key)",
                 "if obj is None:",
                 "    obj = cls(*key)",
                 f"    if len(CACHE) < {_MAX_CACHED_INSTANCES}:",
                 "        CACHE[key] = obj",
                 "return obj, pos"]
    else:
        build = [f"return cls({', '.join(ctor)}), pos"]
    source = "\n".join(["def pack(o, out):", *_indent(pre + tails or ["pass"]),
                        "def unpack(data, pos):", *_indent(reads + build)])
    exec(compile(source, f"<wire codec for {cls.__name__}>", "exec"), namespace)
    prefix = _struct_prefix(type_id)
    _UNPACKERS[prefix] = namespace["unpack"]
    _PACKERS[cls] = entry = (prefix, namespace["pack"])
    return entry


_INT_VECTORS = _VectorStructs("q")
_FLOAT_VECTORS = _VectorStructs("d")


def _packer(cls: type) -> tuple[bytes, Callable]:
    """``(tag + type id bytes, pack)`` of a registered class."""
    return _PACKERS.get(cls) or _compile(cls)


def _unpacker(prefix: bytes) -> Callable:
    """The ``unpack(data, pos) -> (obj, pos)`` closure behind a struct's
    three prefix bytes."""
    unpack = _UNPACKERS.get(prefix)
    if unpack is None:
        type_id = _unpack_u16(prefix, 1)[0]
        cls = _ID_TO_CLASS.get(type_id)
        if cls is None:
            raise WireFormatError(f"unknown wire type id {type_id}")
        _compile(cls)
        unpack = _UNPACKERS[prefix]
    return unpack


# --------------------------------------------------------------------------
# The generic value walker (plain values, and the fallback for fields the
# planner does not recognise)
# --------------------------------------------------------------------------

def _encode_head(out: bytearray, n: int, fix: Optional[tuple[int, int]],
                 tag8: Optional[int], tag16: int) -> None:
    """A container/string head: fix-tag, or ``tag8``/``tag16``/``tag16 + 1``
    followed by a big-endian length."""
    if fix is not None and n < fix[1]:
        out.append(fix[0] | n)
    elif tag8 is not None and n < 256:
        out.append(tag8)
        out.append(n)
    elif n < 65536:
        out.append(tag16)
        out += _pack_u16(n)
    else:
        out.append(tag16 + 1)
        out += _pack_u32(n)


def _encode_value(value: Any, out: bytearray) -> None:
    entry = _PACKERS.get(type(value))
    if entry is not None:
        out += entry[0]
        entry[1](value, out)
    elif value is None:
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
        _encode_head(out, len(raw), (_FIXSTR, 32), _STR8, _STR16)
        out += raw
    elif type(value) is bytes:
        _encode_head(out, len(value), None, _BIN8, _BIN16)
        out += value
    elif type(value) in (tuple, list):
        _encode_head(out, len(value), (_FIXARR, 16), None, _ARR16)
        for item in value:
            _encode_value(item, out)
    elif type(value) is dict:
        _encode_head(out, len(value), (_FIXMAP, 16), None, _MAP16)
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    else:
        prefix, pack = _packer(type(value))
        out += prefix
        pack(value, out)


_CONSTANTS = {_NIL: None, _TRUE: True, _FALSE: False}
#: Tags followed by an explicit length: tag -> (kind, length width, reader).
_SIZED = {
    _STR8: (str, 1, _unpack_u8), _STR16: (str, 2, _unpack_u16),
    _STR32: (str, 4, _unpack_u32),
    _BIN8: (bytes, 1, _unpack_u8), _BIN16: (bytes, 2, _unpack_u16),
    _BIN32: (bytes, 4, _unpack_u32),
    _ARR16: (tuple, 2, _unpack_u16), _ARR32: (tuple, 4, _unpack_u32),
    _MAP16: (dict, 2, _unpack_u16), _MAP32: (dict, 4, _unpack_u32),
}


def _decode_value(data: bytes, pos: int) -> tuple[Any, int]:
    prefix = data[pos:pos + 3]
    unpack = _UNPACKERS.get(prefix)
    if unpack is not None:
        return unpack(data, pos + 3)
    tag = data[pos]
    if tag == _STRUCT:  # a type's first use: compile it
        return _unpacker(prefix)(data, pos + 3)
    pos += 1
    if tag <= 0x7F:
        return tag, pos
    if tag >= 0xE0:
        return tag - 256, pos
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], pos
    if tag == _INT64:
        return _unpack_i64(data, pos)[0], pos + 8
    if tag == _FLOAT64:
        return _unpack_f64(data, pos)[0], pos + 8
    if tag == _BIGINT:
        end = pos + 1 + data[pos]
        return int.from_bytes(data[pos + 1:end], "big", signed=True), end
    sized = _SIZED.get(tag)
    if sized is not None:
        kind, width, read = sized
        n = read(data, pos)[0]
        pos += width
    elif tag > 0xBF:
        raise WireFormatError(f"unknown binary tag 0x{tag:02X}")
    elif tag >= _FIXSTR:
        kind, n = str, tag & 0x1F
    elif tag >= _FIXARR:
        kind, n = tuple, tag & 0x0F
    else:
        kind, n = dict, tag & 0x0F
    if kind is str:
        return data[pos:pos + n].decode(), pos + n
    if kind is bytes:
        return data[pos:pos + n], pos + n
    # Containers are sized by what is parsed, never by the announced count:
    # every element consumes at least its tag byte.
    if kind is tuple:
        items = []
        for _ in range(n):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return tuple(items), pos
    mapping = {}
    for _ in range(n):
        key, pos = _decode_value(data, pos)
        mapping[key], pos = _decode_value(data, pos)
    return mapping, pos


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
            return cls(**{name: _dejsonify(fields[name]) for name in names})
        raise WireFormatError(
            f"malformed JSON wire object with keys {sorted(value)}")
    raise WireFormatError(f"unencodable JSON value {value!r}")


# --------------------------------------------------------------------------
# Frame API
# --------------------------------------------------------------------------

def _unencodable(value: Any, exc: BaseException) -> WireFormatError:
    return WireFormatError(
        f"cannot encode {type(value).__name__}: a field contradicts its "
        f"annotation or is out of range ({type(exc).__name__}: {exc})")


def _malformed(exc: BaseException) -> WireFormatError:
    return WireFormatError(f"malformed frame ({type(exc).__name__}: {exc})")


def _check_consumed(pos: int, length: int) -> None:
    """Lengths inside a frame are trusted while slicing, so an overrun shows
    up here: every decode ends with this check."""
    if pos > length:
        raise WireFormatError(
            f"truncated frame: the payload overruns it by {pos - length} "
            f"bytes")
    if pos < length:
        raise WireFormatError(
            f"{length - pos} trailing bytes after the frame payload")


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
    if format_tag == FORMAT_JSON:
        out += json.dumps(_jsonify(value), separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
        return bytes(out)
    try:
        _encode_value(value, out)
    except _ENCODE_ERRORS as exc:
        raise _unencodable(value, exc) from exc
    return bytes(out)


def encode_run(values: Sequence, header: bytes) -> bytes:
    """``header`` + ``[u32 count]`` + ``values`` as tagged values, row by row
    (a batch frame)."""
    out = bytearray(header)
    out += _pack_u32(len(values))
    try:
        for value in values:
            _encode_value(value, out)
    except _ENCODE_ERRORS as exc:
        raise _unencodable(value, exc) from exc
    return bytes(out)


def decode_run(data: bytes, start: int) -> list:
    """Decode the :func:`encode_run` payload that fills ``data[start:]``."""
    values = []
    try:
        data = bytes(data)  # a no-op for bytes; slices must be hashable
        count = _unpack_u32(data, start)[0]
        pos = start + 4
        if count > len(data) - pos:
            raise _short("run", count)
        for _ in range(count):
            value, pos = _decode_value(data, pos)
            values.append(value)
    except _DECODE_ERRORS as exc:
        raise _malformed(exc) from exc
    _check_consumed(pos, len(data))
    return values


def decode(data: bytes) -> Any:
    """Decode one frame body produced by :func:`encode` (either format) or
    :func:`repro.wire.batch.encode_batch` (to a :class:`BatchFrame`)."""
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
    if format_tag == FORMAT_BATCH:
        return BatchFrame(envelopes=tuple(decode_run(data, 3)))
    if format_tag not in (FORMAT_BINARY, FORMAT_JSON):
        raise WireFormatError(f"unknown wire format tag 0x{format_tag:02X}")
    try:
        if format_tag == FORMAT_JSON:
            return _dejsonify(json.loads(str(data[3:], "utf-8")))
        value, pos = _decode_value(bytes(data), 3)
    except _DECODE_ERRORS as exc:
        raise _malformed(exc) from exc
    _check_consumed(pos, len(data))
    return value


__all__ = [
    "BatchFrame",
    "DYNAMIC_TYPE_ID_BASE",
    "FORMAT_BATCH",
    "FORMAT_BINARY",
    "FORMAT_JSON",
    "FieldKind",
    "MAGIC",
    "SUPPORTED_WIRE_VERSIONS",
    "WIRE_VERSION",
    "decode",
    "decode_run",
    "encode",
    "encode_run",
    "field_plan",
    "register_wire_type",
    "registered_wire_types",
]

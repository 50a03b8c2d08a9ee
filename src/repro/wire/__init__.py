"""Wire layer: a versioned codec plus stream framing.

The wire layer is the bottom of the three-layer message path
(wire -> transport -> runtime): it turns the protocol message dataclasses of
:mod:`repro.core.common.messages` — and any dataclass registered through
:func:`register_wire_type` — into self-describing bytes and back through one
compiled packer per type (:func:`field_plan` is a type's layout), writes
the messages bound for one peer as the rows of one batch frame and reads
them back row by row, and splits byte streams into length-prefixed frames.
It knows nothing about sockets, event loops or protocols; the transports in
:mod:`repro.runtime.transport` own the I/O.

Exports resolve lazily (PEP 562) to keep this package importable without any
heavyweight sibling.
"""

from repro._lazy import make_lazy

_EXPORTS = {
    "BatchFrame": "repro.wire.batch",
    "BatchWriter": "repro.wire.batch",
    "DEFAULT_FLUSH_POLICY": "repro.wire.batch",
    "Envelope": "repro.wire.batch",
    "FORMAT_BATCH": "repro.wire.codec",
    "FORMAT_BINARY": "repro.wire.codec",
    "FlushPolicy": "repro.wire.batch",
    "LENGTH_BYTES": "repro.wire.framing",
    "MAX_BATCH_MESSAGES": "repro.wire.batch",
    "MAX_FRAME_BYTES": "repro.wire.framing",
    "SUPPORTED_WIRE_VERSIONS": "repro.wire.codec",
    "WIRE_VERSION": "repro.wire.codec",
    "decode": "repro.wire.codec",
    "encode": "repro.wire.codec",
    "encode_batch": "repro.wire.batch",
    "field_plan": "repro.wire.codec",
    "frame": "repro.wire.framing",
    "intern_key": "repro.wire.intern",
    "read_batch": "repro.wire.batch",
    "read_frame": "repro.wire.framing",
    "register_wire_type": "repro.wire.codec",
    "registered_wire_types": "repro.wire.codec",
    "write_frame": "repro.wire.framing",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = make_lazy(__name__, _EXPORTS, globals())

"""Batch frames: N envelopes coalesced into one length-prefixed flush.

A per-message frame pays one codec frame, one length prefix, one queue hop
and one socket write per envelope.  A *batch frame* amortises all of that:
the transport coalesces the envelopes bound for one peer and flushes them as
a single frame whose payload is::

    [magic 0xA7] [wire version 5] [format 0x03] [u32 count]
    envelope ... envelope            -- count tagged values, row by row

Each row is what :func:`repro.wire.codec.encode` would write for that
envelope after its header: ``[0xD8] [u16 type id]`` plus the body written by
the type's compiled packer, which in turn writes the payload message through
*its* packer.  There is no batch-specific layout: a frame of one envelope
and a frame of 128 differ only in the count.

When to flush is a transport policy, see :class:`FlushPolicy` and
:mod:`repro.runtime.transport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import WireFormatError
from repro.wire.codec import (
    FORMAT_BATCH,
    MAGIC,
    WIRE_VERSION,
    BatchFrame,
    encode_run,
)

#: Upper bound on envelopes per batch frame.
MAX_BATCH_MESSAGES = 1 << 16

_BATCH_HEADER = bytes((MAGIC, WIRE_VERSION, FORMAT_BATCH))


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
    """Encode ``envelopes`` into one self-contained batch frame body, which
    :func:`repro.wire.codec.decode` turns back into a :class:`BatchFrame`."""
    if len(envelopes) > MAX_BATCH_MESSAGES:
        raise WireFormatError(
            f"batch of {len(envelopes)} envelopes exceeds the "
            f"{MAX_BATCH_MESSAGES}-envelope limit")
    return encode_run(envelopes, _BATCH_HEADER)


__all__ = [
    "BatchFrame",
    "DEFAULT_FLUSH_POLICY",
    "FlushPolicy",
    "MAX_BATCH_MESSAGES",
    "encode_batch",
]

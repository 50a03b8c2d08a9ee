"""Length-prefixed framing for byte streams.

A *frame* on a stream is a 4-byte big-endian payload length followed by the
payload (a codec frame body, see :mod:`repro.wire.codec`).  Two consumers
share the format:

* the asyncio helpers (:func:`read_frame` / :func:`write_frame`) used by the
  TCP transport and the process-cluster control plane; and
* the sans-I/O :class:`FrameDecoder`, an incremental splitter that turns an
  arbitrary chunking of the byte stream back into complete frames (used by
  tests and any non-asyncio integration).

Oversized length prefixes are rejected before any allocation: a corrupted or
hostile peer must not be able to make the receiver reserve gigabytes.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Optional

from repro.errors import WireFormatError

#: Size of the length prefix.
LENGTH_BYTES = 4
#: Upper bound on a single frame's payload.  Generous for this system (the
#: largest messages are replication updates with small values); a prefix
#: beyond it means stream corruption, not a big message.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_pack_len = struct.Struct(">I").pack
_unpack_len = struct.Struct(">I").unpack_from


def frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its 4-byte big-endian length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _pack_len(len(payload)) + payload


class FrameDecoder:
    """Incremental frame splitter (sans-I/O).

    Feed arbitrary byte chunks; get back every frame completed so far::

        decoder = FrameDecoder()
        for chunk in stream:
            for payload in decoder.feed(chunk):
                handle(payload)
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Append ``data`` and return the payloads of all complete frames."""
        buffer = self._buffer
        buffer += data
        frames: list[bytes] = []
        start, available = 0, len(buffer)
        while available - start >= LENGTH_BYTES:
            (length,) = _unpack_len(buffer, start)
            if length > MAX_FRAME_BYTES:
                raise WireFormatError(
                    f"frame length prefix {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte limit (corrupt stream?)")
            end = start + LENGTH_BYTES + length
            if end > available:
                break
            frames.append(bytes(buffer[start + LENGTH_BYTES:end]))
            start = end
        # One shift per feed, not per frame: a chunk of many small frames
        # would otherwise move the rest of the buffer once for each.
        del buffer[:start]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame payload; ``None`` on clean EOF at a frame boundary.

    EOF in the middle of a frame raises :class:`~repro.errors.WireFormatError`
    — a peer that vanished mid-message is an error, not a shutdown.
    """
    try:
        prefix = await reader.readexactly(LENGTH_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireFormatError(
            f"stream ended inside a frame length prefix "
            f"({len(exc.partial)}/{LENGTH_BYTES} bytes)") from exc
    (length,) = _unpack_len(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame length prefix {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt stream?)")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireFormatError(
            f"stream ended inside a frame payload "
            f"({len(exc.partial)}/{length} bytes)") from exc


async def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Write one frame and drain the writer's buffer."""
    writer.write(frame(payload))
    await writer.drain()


__all__ = [
    "FrameDecoder",
    "LENGTH_BYTES",
    "MAX_FRAME_BYTES",
    "frame",
    "read_frame",
    "write_frame",
]

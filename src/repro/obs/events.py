"""Typed trace events: the vocabulary of the observability layer.

One frozen dataclass, :class:`TraceEvent`, covers the whole taxonomy; the
``kind`` field names the lifecycle step.  The taxonomy follows a write's life
through the system:

``op_start`` / ``op_finish``
    A client issued / completed an operation (``name`` is ``"put"`` or
    ``"rot"``).  ``op_start`` is where the trace id is minted.
``msg_send`` / ``msg_recv``
    A node handed a protocol message to the network / started handling one
    (``name`` is the message class name).
``effect``
    A kernel side effect other than a send — currently timer arming
    (``name`` is ``set-timer:<tag>``).
``replicate_apply``
    A remote DC's partition server installed a replicated version
    (``name`` is the key).
``gss_advance``
    A partition's Global Stable Snapshot moved forward (vector protocols).
``visible``
    A replicated version became readable in a remote DC — for the vector
    protocols the moment the GSS covers its dependency vector, for CC-LO the
    moment its readers check finalises.  The gap between a trace's
    ``op_start`` and its ``visible`` events is the paper's update-visibility
    latency, measured directly.

Events are wire-registered (type id 524) so TCP worker processes can ship
their buffers back to the parent over the existing control plane.  ``data``
is a tuple of ``(key, value)`` pairs rather than a dict to keep the dataclass
hashable and the encoding compact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.wire.codec import register_wire_type

#: Reserved wire type id for :class:`TraceEvent` (runtime-internal range).
TRACE_EVENT_TYPE_ID = 524

OP_START = "op_start"
OP_FINISH = "op_finish"
EFFECT = "effect"
MSG_SEND = "msg_send"
MSG_RECV = "msg_recv"
BATCH_FLUSH = "batch_flush"
BATCH_RECV = "batch_recv"
REPLICATE_APPLY = "replicate_apply"
GSS_ADVANCE = "gss_advance"
VISIBLE = "visible"
WINDOW_SEAL = "window_seal"
WINDOW_RETIRE = "window_retire"

#: Every event kind the bus emits, in rough lifecycle order.  The batch
#: kinds are transport-level: the TCP transport emits one ``batch_flush``
#: per coalesced frame it writes and one ``batch_recv`` per batch frame it
#: fans back out (``data`` carries the envelope count), while the
#: per-message ``msg_send``/``msg_recv`` events keep being emitted by the
#: nodes themselves.
#: The window kinds are validation-side: the streaming checker emits one
#: ``window_seal`` when a verification window is handed to the checkers and
#: one ``window_retire`` when its versions leave the live set (``data``
#: carries op/version counts and the live-set size, so a timeline shows the
#: checker's memory ceiling directly).
EVENT_KINDS = (OP_START, OP_FINISH, EFFECT, MSG_SEND, MSG_RECV,
               BATCH_FLUSH, BATCH_RECV, REPLICATE_APPLY, GSS_ADVANCE,
               VISIBLE, WINDOW_SEAL, WINDOW_RETIRE)


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation from a node.

    ``seq`` is the emitting bus's monotonic sequence number (it advances even
    when the ring buffer drops, so losses show up as gaps).  ``ts`` is the
    bus's time source at emission: virtual seconds in the simulator,
    wall-clock run seconds in realtime clusters.  ``trace`` carries the
    causal trace id of the operation this event belongs to, or ``None`` for
    background activity (stabilization broadcasts, heartbeats).
    """

    seq: int
    ts: float
    node: str
    kind: str
    trace: Optional[str] = None
    name: str = ""
    dc: int = -1
    data: Tuple[Tuple[str, object], ...] = ()

    def datum(self, key: str, default: object = None) -> object:
        """Look up one ``data`` pair by key."""
        for name, value in self.data:
            if name == key:
                return value
        return default


register_wire_type(TraceEvent, type_id=TRACE_EVENT_TYPE_ID)

__all__ = [
    "BATCH_FLUSH",
    "BATCH_RECV",
    "EFFECT",
    "EVENT_KINDS",
    "GSS_ADVANCE",
    "MSG_RECV",
    "MSG_SEND",
    "OP_FINISH",
    "OP_START",
    "REPLICATE_APPLY",
    "TRACE_EVENT_TYPE_ID",
    "TraceEvent",
    "VISIBLE",
    "WINDOW_RETIRE",
    "WINDOW_SEAL",
]

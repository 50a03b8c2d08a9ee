"""Message types exchanged by clients and partition servers.

Messages are records (:mod:`repro.core.common.records`): frozen, slotted
dataclasses built through their slots.  Each type reports its wire size
through ``size_bytes`` so the network model can charge serialisation time and
the overhead counters can attribute bytes to protocols: vectors cost 8 bytes
per entry, dependency entries 16 bytes, ROT identifiers 8 bytes (the figure
the paper uses when estimating the 7 KB readers-check payload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from repro.core.common.records import record

#: Fixed per-message header (routing, type tag, request id).
HEADER_BYTES = 32
#: Bytes per vector entry / timestamp.
TIMESTAMP_BYTES = 8
#: Bytes per explicit dependency entry (key digest + timestamp).
DEPENDENCY_BYTES = 16
#: Bytes per ROT identifier exchanged during a readers check.
ROT_ID_BYTES = 8
#: Bytes per key name carried in a request.
KEY_BYTES = 8

#: A read reply is sized for every hop's counters and again by the simulated
#: network: its payload sum stays out of the interpreter (no generator frame
#: per result).
_VALUE_SIZE = attrgetter("value_size")


@record
class Message:
    """Base class for all protocol messages."""

    def size_bytes(self) -> int:
        """Wire size of the message; subclasses refine this."""
        return HEADER_BYTES


# --------------------------------------------------------------------------
# Vector-protocol messages (Contrarian and Cure)
# --------------------------------------------------------------------------
@record
class VectorPutRequest(Message):
    """Client -> partition: create a new version of ``key``."""

    key: str
    value_size: int
    client_vector: tuple[int, ...]
    client_id: str
    sequence: int
    dependencies: tuple[tuple[str, int], ...] = ()

    def size_bytes(self) -> int:
        return (HEADER_BYTES + KEY_BYTES + self.value_size
                + TIMESTAMP_BYTES * len(self.client_vector))


@record
class VectorPutReply(Message):
    """Partition -> client: the new version's timestamp and the fresh GSS."""

    key: str
    timestamp: int
    gss: tuple[int, ...]

    def size_bytes(self) -> int:
        return HEADER_BYTES + KEY_BYTES + TIMESTAMP_BYTES * (1 + len(self.gss))


@record
class RotCoordinatorRequest(Message):
    """Client -> coordinator: start a ROT (both 1½- and 2-round modes)."""

    rot_id: str
    keys: tuple[str, ...]
    client_local_ts: int
    client_gss: tuple[int, ...]
    client_id: str
    two_round: bool = False

    def size_bytes(self) -> int:
        return (HEADER_BYTES + KEY_BYTES * len(self.keys)
                + TIMESTAMP_BYTES * (1 + len(self.client_gss)))


@record
class RotSnapshotReply(Message):
    """Coordinator -> client (2-round mode): the chosen snapshot vector."""

    rot_id: str
    snapshot: tuple[int, ...]

    def size_bytes(self) -> int:
        return HEADER_BYTES + TIMESTAMP_BYTES * len(self.snapshot)


@record
class RotProxyRead(Message):
    """Coordinator -> partition (1½-round mode): read on behalf of the client."""

    rot_id: str
    keys: tuple[str, ...]
    snapshot: tuple[int, ...]
    client_id: str

    def size_bytes(self) -> int:
        return (HEADER_BYTES + KEY_BYTES * len(self.keys)
                + TIMESTAMP_BYTES * len(self.snapshot))


@record
class RotReadRequest(Message):
    """Client -> partition (2-round mode): read with an explicit snapshot."""

    rot_id: str
    keys: tuple[str, ...]
    snapshot: tuple[int, ...]
    client_id: str

    def size_bytes(self) -> int:
        return (HEADER_BYTES + KEY_BYTES * len(self.keys)
                + TIMESTAMP_BYTES * len(self.snapshot))


@record
class ReadResult:
    """The per-key payload of a read reply."""

    key: str
    timestamp: Optional[int]
    origin_dc: int
    value_size: int


@record
class RotValueReply(Message):
    """Partition -> client: the values (one version per key) for a ROT."""

    rot_id: str
    results: tuple[ReadResult, ...]
    snapshot: tuple[int, ...]
    gss: tuple[int, ...]

    def size_bytes(self) -> int:
        payload = sum(map(_VALUE_SIZE, self.results))
        return (HEADER_BYTES + payload
                + (KEY_BYTES + TIMESTAMP_BYTES) * len(self.results)
                + TIMESTAMP_BYTES * (len(self.snapshot) + len(self.gss)))


@record
class RemoteHeartbeat(Message):
    """Partition -> remote replica: clock advertisement when no PUTs flow.

    Without heartbeats a partition that receives no replicated updates would
    pin the remote entries of the GSS at zero and remote versions would never
    become visible (the "laggard" problem discussed in Section 4).
    """

    origin_dc: int
    timestamp: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + TIMESTAMP_BYTES


@record
class StabilizationMessage(Message):
    """Partition -> partition (same DC): version-vector exchange for the GSS;
    ``previous_gss`` (the sender's GSS at its previous broadcast) is its
    term of the receiver's version-GC floor."""

    partition_index: int
    version_vector: tuple[int, ...]
    previous_gss: tuple[int, ...]

    def size_bytes(self) -> int:
        return HEADER_BYTES + TIMESTAMP_BYTES * (len(self.version_vector)
                                                 + len(self.previous_gss))


@record
class ReplicateUpdate(Message):
    """Partition -> remote replica: asynchronous propagation of one version."""

    key: str
    timestamp: int
    origin_dc: int
    value_size: int
    dependency_vector: Optional[tuple[int, ...]] = None
    dependencies: tuple[tuple[str, int], ...] = ()
    writer: str = ""
    sequence: int = 0

    def size_bytes(self) -> int:
        vector_len = len(self.dependency_vector) if self.dependency_vector else 0
        return (HEADER_BYTES + KEY_BYTES + self.value_size
                + TIMESTAMP_BYTES * (1 + vector_len)
                + DEPENDENCY_BYTES * len(self.dependencies))


# --------------------------------------------------------------------------
# CC-LO (COPS-SNOW) messages
# --------------------------------------------------------------------------
@record
class OneRoundReadRequest(Message):
    """Client -> partition: the single round of a latency-optimal ROT."""

    rot_id: str
    keys: tuple[str, ...]
    client_id: str

    def size_bytes(self) -> int:
        return HEADER_BYTES + ROT_ID_BYTES + KEY_BYTES * len(self.keys)


@record
class OneRoundReadReply(Message):
    """Partition -> client: values for a latency-optimal ROT."""

    rot_id: str
    results: tuple[ReadResult, ...]

    def size_bytes(self) -> int:
        payload = sum(map(_VALUE_SIZE, self.results))
        return (HEADER_BYTES + ROT_ID_BYTES + payload
                + (KEY_BYTES + TIMESTAMP_BYTES) * len(self.results))


@record
class CcloPutRequest(Message):
    """Client -> partition: PUT carrying the client's explicit dependencies."""

    key: str
    value_size: int
    dependencies: tuple[tuple[str, int, int], ...]
    dependency_partitions: tuple[int, ...]
    client_id: str
    sequence: int

    def size_bytes(self) -> int:
        return (HEADER_BYTES + KEY_BYTES + self.value_size
                + DEPENDENCY_BYTES * len(self.dependencies))


@record
class CcloPutReply(Message):
    """Partition -> client: PUT acknowledgement (sent once the PUT completed)."""

    key: str
    timestamp: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + KEY_BYTES + TIMESTAMP_BYTES


@record
class ReadersCheckRequest(Message):
    """Writing partition -> dependency partition: collect old readers.

    In the geo-replicated case the same message doubles as the dependency
    check (``require_present`` is then True): the receiving partition delays
    its reply until it has installed a version of every listed dependency.
    """

    check_id: str
    dependencies: tuple[tuple[str, int, int], ...]
    put_key: str
    put_timestamp: int
    require_present: bool = False

    def size_bytes(self) -> int:
        return (HEADER_BYTES + KEY_BYTES + TIMESTAMP_BYTES
                + DEPENDENCY_BYTES * len(self.dependencies))


@record
class ReadersCheckReply(Message):
    """Dependency partition -> writing partition: the old readers it knows of."""

    check_id: str
    old_readers: tuple[tuple[str, int], ...]  # (rot_id, logical read time)

    def size_bytes(self) -> int:
        return HEADER_BYTES + ROT_ID_BYTES * len(self.old_readers) \
            + TIMESTAMP_BYTES * len(self.old_readers)


@record
class CcloReplicateUpdate(Message):
    """Partition -> remote replica: replicated update with its dependency list."""

    key: str
    timestamp: int
    origin_dc: int
    value_size: int
    dependencies: tuple[tuple[str, int, int], ...]
    writer: str
    sequence: int
    old_readers: tuple[tuple[str, int], ...] = ()

    def size_bytes(self) -> int:
        return (HEADER_BYTES + KEY_BYTES + self.value_size + TIMESTAMP_BYTES
                + DEPENDENCY_BYTES * len(self.dependencies)
                + ROT_ID_BYTES * len(self.old_readers))


# --------------------------------------------------------------------------
# Client-side bookkeeping (not a wire message)
# --------------------------------------------------------------------------
@dataclass(slots=True)
class PendingRot:
    """Client-side state of an in-flight ROT."""

    rot_id: str
    keys: tuple[str, ...]
    started_at: float
    expected_replies: int
    results: dict[str, ReadResult] = field(default_factory=dict)
    snapshot: Optional[tuple[int, ...]] = None

    def record_reply(self, results: tuple[ReadResult, ...]) -> None:
        for result in results:
            self.results[result.key] = result
        self.expected_replies -= 1

    @property
    def complete(self) -> bool:
        return self.expected_replies <= 0


# --------------------------------------------------------------------------
# Wire-codec enumeration
# --------------------------------------------------------------------------
#: Every message type that can cross a process boundary, in a *stable* order:
#: the wire codec (:mod:`repro.wire`) derives each type's numeric tag from its
#: position in this tuple, so entries must only ever be appended, never
#: reordered or removed (that would change tags and break cross-version
#: decoding).  :class:`ReadResult` is listed because replies embed it.
WIRE_MESSAGES: tuple[type, ...] = (
    ReadResult,
    VectorPutRequest,
    VectorPutReply,
    RotCoordinatorRequest,
    RotSnapshotReply,
    RotProxyRead,
    RotReadRequest,
    RotValueReply,
    RemoteHeartbeat,
    StabilizationMessage,
    ReplicateUpdate,
    OneRoundReadRequest,
    OneRoundReadReply,
    CcloPutRequest,
    CcloPutReply,
    ReadersCheckRequest,
    ReadersCheckReply,
    CcloReplicateUpdate,
)

#: The wire-message set of each protocol (used by the codec round-trip tests
#: to assert per-protocol coverage).  The vector protocols share one set.
PROTOCOL_MESSAGES: dict[str, tuple[type, ...]] = {
    "contrarian": (
        VectorPutRequest, VectorPutReply, RotCoordinatorRequest,
        RotSnapshotReply, RotProxyRead, RotReadRequest, RotValueReply,
        RemoteHeartbeat, StabilizationMessage, ReplicateUpdate, ReadResult,
    ),
    "cure": (
        VectorPutRequest, VectorPutReply, RotCoordinatorRequest,
        RotSnapshotReply, RotReadRequest, RotValueReply, RemoteHeartbeat,
        StabilizationMessage, ReplicateUpdate, ReadResult,
    ),
    "cc-lo": (
        OneRoundReadRequest, OneRoundReadReply, CcloPutRequest, CcloPutReply,
        ReadersCheckRequest, ReadersCheckReply, CcloReplicateUpdate,
        ReadResult,
    ),
}


__all__ = [
    "CcloPutReply",
    "CcloPutRequest",
    "CcloReplicateUpdate",
    "DEPENDENCY_BYTES",
    "HEADER_BYTES",
    "KEY_BYTES",
    "Message",
    "OneRoundReadReply",
    "OneRoundReadRequest",
    "PendingRot",
    "ReadResult",
    "ReadersCheckReply",
    "ReadersCheckRequest",
    "RemoteHeartbeat",
    "ReplicateUpdate",
    "RotCoordinatorRequest",
    "RotProxyRead",
    "RotReadRequest",
    "RotSnapshotReply",
    "RotValueReply",
    "ROT_ID_BYTES",
    "StabilizationMessage",
    "TIMESTAMP_BYTES",
    "VectorPutReply",
    "VectorPutRequest",
    "PROTOCOL_MESSAGES",
    "WIRE_MESSAGES",
]

"""Item versions stored by partitions.

The system model (Section 2.1) is a multi-version key-value store: a PUT on
key ``x`` creates a new version ``X`` rather than overwriting the previous
one, and ROTs pick, per key, the version that belongs to the requested
causally consistent snapshot.

A single :class:`Version` class serves all three protocols; protocol-specific
metadata is carried in optional fields:

* ``dependency_vector`` — used by Contrarian and Cure (one entry per DC);
* ``dependencies`` — explicit dependency list (key, timestamp) pairs used by
  CC-LO / COPS-SNOW;
* ``old_readers`` — the CC-LO old-reader record attached to the version
  during the readers check: ROT ids that must **not** observe this version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(slots=True)
class Version:
    """One version of one key.

    Attributes
    ----------
    key:
        The key this version belongs to.
    value:
        The stored value.  For workload-driven runs this is an opaque payload
        whose only relevant property is its size.
    timestamp:
        The version's creation timestamp in the protocol's clock domain
        (Lamport value, packed HLC, or physical microseconds).
    origin_dc:
        Index of the data center where the PUT was originally executed.
    size_bytes:
        Size of the value, charged by the network and CPU cost models.
    dependency_vector:
        Per-DC dependency vector (Contrarian / Cure).  ``None`` for CC-LO.
    dependencies:
        Explicit dependency list for CC-LO: a tuple of ``(key, timestamp)``
        pairs the writing client had observed.
    dependency_origins:
        Origin DC of each dependency, aligned with ``dependencies`` (CC-LO
        only; needed by the remote dependency check).
    old_readers:
        CC-LO old-reader record: maps ROT id -> logical read time for the
        transactions that read an older version of some causal dependency and
        therefore must not be served this version.
    visible:
        Whether the version may be returned to clients.  CC-LO keeps a version
        invisible until its readers check (and, remotely, dependency check)
        completes; Contrarian/Cure decide visibility of remote versions via
        the GSS instead and keep local versions always visible.
    created_at:
        Simulated time at which the version was installed (used for
        garbage-collection policies and freshness statistics).
    writer:
        Identifier of the client that issued the PUT (used by the causal
        consistency checker to reconstruct session order).
    sequence:
        Per-client sequence number of the PUT (checker bookkeeping).
    """

    key: str
    value: object
    timestamp: int
    origin_dc: int = 0
    size_bytes: int = 8
    dependency_vector: Optional[tuple[int, ...]] = None
    dependencies: tuple[tuple[str, int], ...] = ()
    dependency_origins: tuple[int, ...] = ()
    old_readers: dict[str, int] = field(default_factory=dict)
    visible: bool = True
    created_at: float = 0.0
    writer: str = ""
    sequence: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Version(key={self.key!r}, ts={self.timestamp}, "
                f"dc={self.origin_dc}, visible={self.visible})")


__all__ = ["Version"]

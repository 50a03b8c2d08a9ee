"""Item versions stored by partitions.

The system model (Section 2.1) is a multi-version key-value store: a PUT on
key ``x`` creates a new version ``X`` rather than overwriting the previous
one, and ROTs pick, per key, the version that belongs to the requested
causally consistent snapshot.

A single :class:`Version` class serves all three protocols; protocol-specific
metadata is carried in optional fields:

* ``dependency_vector`` — used by Contrarian and Cure (one entry per DC);
* ``old_readers`` — the CC-LO old-reader record attached to the version
  during the readers check: ROT ids that must **not** observe this version;
* ``visible_at`` — when CC-LO's readers check made the version visible, which
  starts its key's garbage-collection window
  (:meth:`~repro.storage.mvstore.MultiVersionStore.collect_superseded`) and
  the window after which its ``old_readers`` are released.

A version keeps only what a later read needs.  The dependency list a PUT
carried is not stored: replication, its only reader, takes it from the
message (or, on CC-LO, from the pending readers check), and a replicated
install keeps nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

#: The ``old_readers`` of every version that bars no ROT: one shared,
#: read-only empty mapping instead of an empty dict per version.
NO_OLD_READERS: Mapping[str, int] = MappingProxyType({})


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
    old_readers:
        CC-LO old-reader record: maps ROT id -> logical read time for the
        transactions that read an older version of some causal dependency and
        therefore must not be served this version.  A version that bars no
        ROT shares the read-only :data:`NO_OLD_READERS`; CC-LO gives a
        version its own dict (the readers check's) only when it has ids, and
        puts the shared one back a reader window after ``visible_at``, when
        no ROT it bars can still read (the argument is in
        :mod:`repro.storage.mvstore`).
    visible:
        Whether the version may be returned to clients.  CC-LO keeps a version
        invisible until its readers check (and, remotely, dependency check)
        completes; Contrarian/Cure decide visibility of remote versions via
        the GSS instead and keep local versions always visible.
    visible_at:
        Time at which CC-LO's readers check made the version visible (``0.0``
        for preloaded versions, and for Contrarian and Cure, which never set
        it).  A version superseded by one visible for a full reader window
        can be collected.
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
    # A C-level constant factory: 3.11's dataclasses refuse an unhashable
    # default, and a mappingproxy is hashable only from 3.12 on.
    old_readers: Mapping[str, int] = field(
        default_factory=itertools.repeat(NO_OLD_READERS).__next__)
    visible: bool = True
    visible_at: float = 0.0
    writer: str = ""
    sequence: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Version(key={self.key!r}, ts={self.timestamp}, "
                f"dc={self.origin_dc}, visible={self.visible})")


__all__ = ["NO_OLD_READERS", "Version"]

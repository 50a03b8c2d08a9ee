"""The records of a history and the report a checker returns.

Every protocol run can record its history — each PUT with the causal
context it was issued in, each ROT with the versions it returned — for the
causal-consistency checker,
:class:`~repro.causal.streaming.StreamingChecker`, which answers with a
:class:`CheckerReport`.  A version is identified by ``(key, timestamp,
origin_dc)``: timestamps from different data centers live in different
clock domains, so the origin DC is part of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.common.records import record
from repro.errors import ConsistencyViolation

#: A version is identified by ``(key, timestamp, origin_dc)``.
VersionId = tuple[str, int, int]


@record
class RecordedPut:
    """A PUT as recorded in a history."""

    key: str
    timestamp: int
    origin_dc: int
    client: str
    sequence: int
    dependencies: tuple[tuple[str, int, int], ...] = ()

    @property
    def version_id(self) -> VersionId:
        return (self.key, self.timestamp, self.origin_dc)


@record
class RecordedRead:
    """One key's result within a recorded ROT."""

    key: str
    timestamp: Optional[int]
    origin_dc: int = 0

    @property
    def version_id(self) -> Optional[VersionId]:
        if self.timestamp is None:
            return None
        return (self.key, self.timestamp, self.origin_dc)


@record
class RecordedRot:
    """A ROT as recorded in a history."""

    rot_id: str
    client: str
    sequence: int
    reads: tuple[RecordedRead, ...]


@dataclass
class CheckerReport:
    """Summary of a checker run."""

    puts: int = 0
    rots: int = 0
    snapshot_violations: list[str] = field(default_factory=list)
    session_violations: list[str] = field(default_factory=list)
    #: Divergent reads among those recorded after the run quiesced
    #: (:meth:`StreamingChecker.mark_quiesced
    #: <repro.causal.streaming.StreamingChecker.mark_quiesced>`); empty when
    #: nothing marked the history quiesced.
    convergence_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.snapshot_violations and not self.session_violations
                and not self.convergence_violations)

    def raise_if_violations(self) -> None:
        """Raise :class:`ConsistencyViolation` if any violation was found."""
        if not self.ok:
            problems = (self.snapshot_violations + self.session_violations
                        + self.convergence_violations)
            raise ConsistencyViolation("; ".join(problems[:10]))


__all__ = [
    "CheckerReport",
    "RecordedPut",
    "RecordedRead",
    "RecordedRot",
    "VersionId",
]

"""Replication overhead accounting.

Section 5.4 of the paper explains CC-LO's poorer scaling from one to two DCs
(1.6x versus Contrarian's 1.9x) by the extra work replication triggers: the
dependency list travels with each update and the readers check is repeated in
every remote DC.  This module condenses the per-server overhead counters into
a per-update view so the experiment reports can show that difference
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.metrics.overheads import OverheadCounters


@dataclass(frozen=True)
class ReplicationOverhead:
    """Replication cost summary for one run."""

    replication_messages: int
    dependency_entries_sent: int
    readers_checks: int
    rot_ids_exchanged: int

    @property
    def dependencies_per_update(self) -> float:
        """Average number of dependency entries shipped per replicated update."""
        if self.replication_messages == 0:
            return 0.0
        return self.dependency_entries_sent / self.replication_messages

    @property
    def rot_ids_per_check(self) -> float:
        """Average number of ROT ids exchanged per readers check."""
        if self.readers_checks == 0:
            return 0.0
        return self.rot_ids_exchanged / self.readers_checks


def summarize_replication(counters: Iterable[OverheadCounters]) -> ReplicationOverhead:
    """Aggregate per-server counters into a :class:`ReplicationOverhead`."""
    merged = OverheadCounters()
    for counter in counters:
        merged.merge(counter)
    return ReplicationOverhead(
        replication_messages=merged.replication_messages,
        dependency_entries_sent=merged.dependency_entries_sent,
        readers_checks=merged.readers_checks,
        rot_ids_exchanged=merged.rot_ids_cumulative,
    )


__all__ = ["ReplicationOverhead", "summarize_replication"]

"""Protocol-overhead counters.

These counters back Figure 6 (ROT ids exchanged per readers check) and the
message/metadata columns of Table 2.  They are filled in by the sans-I/O
protocol kernels (and by the kernel host's send path), so they live here in
the metrics layer rather than in the simulator: both the simulated and the
real-time backends account overheads through the same object.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OverheadCounters:
    """Aggregate counters of protocol overhead, filled in by servers."""

    messages_sent: int = 0
    bytes_sent: int = 0
    readers_checks: int = 0
    readers_check_messages: int = 0
    readers_check_partitions: int = 0
    rot_ids_cumulative: int = 0
    rot_ids_distinct: int = 0
    dependency_entries_sent: int = 0
    stabilization_messages: int = 0
    replication_messages: int = 0
    blocked_reads: int = 0
    total_block_time: float = 0.0
    #: Reads of a stored key that found no version in their snapshot: the
    #: vector protocols' version GC collected one a read still needed.
    snapshot_misses: int = 0

    def record_readers_check(self, distinct_ids: int, cumulative_ids: int,
                             partitions_contacted: int) -> None:
        """Record the outcome of one complete readers check."""
        self.readers_checks += 1
        self.rot_ids_distinct += distinct_ids
        self.rot_ids_cumulative += cumulative_ids
        self.readers_check_partitions += partitions_contacted

    def merge(self, other: "OverheadCounters") -> None:
        """Accumulate another counter set into this one."""
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.readers_checks += other.readers_checks
        self.readers_check_messages += other.readers_check_messages
        self.readers_check_partitions += other.readers_check_partitions
        self.rot_ids_cumulative += other.rot_ids_cumulative
        self.rot_ids_distinct += other.rot_ids_distinct
        self.dependency_entries_sent += other.dependency_entries_sent
        self.stabilization_messages += other.stabilization_messages
        self.replication_messages += other.replication_messages
        self.blocked_reads += other.blocked_reads
        self.total_block_time += other.total_block_time
        self.snapshot_misses += other.snapshot_misses

    # Derived statistics -----------------------------------------------------
    def average_distinct_ids_per_check(self) -> float:
        """Average number of distinct ROT ids collected per readers check."""
        if self.readers_checks == 0:
            return 0.0
        return self.rot_ids_distinct / self.readers_checks

    def average_cumulative_ids_per_check(self) -> float:
        """Average cumulative number of ROT ids exchanged per readers check."""
        if self.readers_checks == 0:
            return 0.0
        return self.rot_ids_cumulative / self.readers_checks

    def average_partitions_per_check(self) -> float:
        """Average number of partitions contacted per readers check."""
        if self.readers_checks == 0:
            return 0.0
        return self.readers_check_partitions / self.readers_checks


__all__ = ["OverheadCounters"]

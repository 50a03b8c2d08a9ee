"""Global Stable Snapshot (GSS) computation.

Contrarian and Cure determine the visibility of remotely-replicated items with
a *stabilization protocol* (Section 4): every partition periodically exchanges
its version vector ``VV`` with the other partitions in its DC and computes the
entry-wise minimum, the GSS.  An item replicated from DC ``i`` with timestamp
``t`` is visible in the local DC once ``GSS[i] >= t``: all of its causal
dependencies from DC ``i`` (which have smaller timestamps) must already have
arrived.

This module holds the *state* of the computation for one partition; the
periodic broadcast itself is driven by the protocol servers so the messages go
through the simulated network and are charged CPU time.
"""

from __future__ import annotations

from typing import Sequence

from repro.causal.vectors import entrywise_max, entrywise_min_all, zero_vector
from repro.errors import ProtocolError


class GlobalStableSnapshot:
    """Tracks the known version vectors of the partitions in one DC.

    Parameters
    ----------
    num_dcs:
        Number of data centers (vector width).
    num_partitions:
        Number of partitions in the local DC participating in stabilization.
    partition_index:
        Index of the partition owning this instance.
    """

    def __init__(self, num_dcs: int, num_partitions: int, partition_index: int) -> None:
        if not 0 <= partition_index < num_partitions:
            raise ProtocolError(
                f"partition_index {partition_index} out of range [0, {num_partitions})")
        self._num_dcs = num_dcs
        self._known_vv: list[tuple[int, ...]] = [zero_vector(num_dcs)
                                                 for _ in range(num_partitions)]
        self._partition_index = partition_index
        #: Entry-wise minimum of the known VVs, recomputed only when a
        #: recorded VV advanced.
        self._stable = zero_vector(num_dcs)
        #: The current Global Stable Snapshot: ``_stable`` as of the last
        #: record, moved forward by :meth:`merge_observed_gss` since.  A plain
        #: attribute (read several times per message); only this class
        #: assigns it.
        self.gss = self._stable

    def update_local_vv(self, vv: Sequence[int]) -> None:
        """Record this partition's own version vector."""
        self._record(self._partition_index, vv)

    def observe_remote_vv(self, partition_index: int, vv: Sequence[int]) -> tuple[int, ...]:
        """Record a VV received from another partition and recompute the GSS."""
        self._record(partition_index, vv)
        return self.gss

    def _record(self, partition_index: int, vv: Sequence[int]) -> None:
        if len(vv) != self._num_dcs:
            raise ProtocolError(
                f"version vector has {len(vv)} entries, expected {self._num_dcs}")
        # VV entries never move backwards; guard against reordered messages.
        current = self._known_vv[partition_index]
        merged = entrywise_max(current, vv)
        if merged != current:
            self._known_vv[partition_index] = merged
            self._stable = entrywise_min_all(self._known_vv)
        self.gss = self._stable

    def merge_observed_gss(self, other: Sequence[int]) -> tuple[int, ...]:
        """Merge a GSS observed from a client or coordinator (entry-wise max).

        Clients piggyback the freshest GSS they have seen on their requests so
        that they observe monotonically increasing snapshots; a partition
        merging that value may only move its own view forward.
        """
        self.gss = entrywise_max(self.gss, other)
        return self.gss


__all__ = ["GlobalStableSnapshot"]

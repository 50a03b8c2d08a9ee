"""Global Stable Snapshot (GSS) computation.

Contrarian and Cure determine the visibility of remotely-replicated items with
a *stabilization protocol* (Section 4): every partition periodically exchanges
its version vector ``VV`` with the other partitions in its DC and computes the
entry-wise minimum, the GSS.  An item replicated from DC ``i`` with timestamp
``t`` is visible in the local DC once ``GSS[i] >= t``: all of its causal
dependencies from DC ``i`` (which have smaller timestamps) must already have
arrived.

The same exchange carries the version-GC floor: a broadcast also holds the
GSS its sender had at its *previous* broadcast, and the vector kernel's
docstring argues why every snapshot still to be read dominates the minimum.

This module holds the *state* of both computations for one partition; the
periodic broadcast itself is driven by the protocol servers so the messages go
through the simulated network and are charged CPU time.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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
        self._known_vv: list[tuple[int, ...]] = [zero_vector(num_dcs)
                                                 for _ in range(num_partitions)]
        self._partition_index = partition_index
        #: Each partition's GSS as of its previous broadcast (this
        #: partition's own included): the terms of the GC floor.
        self._known_floor: list[tuple[int, ...]] = [
            zero_vector(num_dcs) for _ in range(num_partitions)]
        #: The current Global Stable Snapshot: the entry-wise minimum of the
        #: known VVs, recomputed only when a recorded VV advanced, so it
        #: never moves backwards.  A plain attribute (read several times per
        #: message); only this class assigns it.
        self.gss = zero_vector(num_dcs)
        self._broadcast_gss = self.gss

    def update_local_vv(self, vv: Sequence[int]) -> tuple[int, ...]:
        """Record this partition's own VV at a broadcast; return the GSS
        of the previous one, which it carries and keeps as its floor term."""
        previous = self._broadcast_gss
        self._known_floor[self._partition_index] = previous
        self._record(self._partition_index, vv)
        self._broadcast_gss = self.gss
        return previous

    def observe_remote_vv(self, partition_index: int, vv: Sequence[int],
                          previous_gss: tuple[int, ...]) -> None:
        """Record a peer's broadcast: its VV, which may move the GSS, and
        the GSS it had at its previous broadcast, its floor term."""
        self._known_floor[partition_index] = previous_gss
        self._record(partition_index, vv)

    def gc_floor(self, snapshots: Iterable[Sequence[int]] = ()
                 ) -> tuple[int, ...]:
        """The entry-wise minimum of every partition's floor term and of
        ``snapshots`` (those of the reads the partition holds)."""
        return entrywise_min_all((*self._known_floor, *snapshots))

    def _record(self, partition_index: int, vv: Sequence[int]) -> None:
        # VV entries never move backwards; guard against reordered messages
        # (``entrywise_max`` rejects a VV of the wrong width).
        current = self._known_vv[partition_index]
        merged = entrywise_max(current, vv)
        if merged != current:
            self._known_vv[partition_index] = merged
            self.gss = entrywise_min_all(self._known_vv)


__all__ = ["GlobalStableSnapshot"]

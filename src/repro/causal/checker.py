"""Causal-consistency checker for recorded histories.

Every protocol run can record its history (PUTs with their causal context and
ROT results) and hand it to this checker, which verifies the guarantees the
paper's system model requires (Section 2.2):

1. **Causally consistent snapshots** — if a ROT returns ``X`` for key ``x``
   and ``Y`` for key ``y``, there must be no ``X'`` with ``X ; X' ; Y``.
   Operationally: for every version ``Y`` returned by the ROT and every other
   requested key ``x``, if some version ``X'`` of ``x`` lies in the causal
   past of ``Y`` and the version ``X`` actually returned for ``x`` lies in the
   causal past of ``X'``, the snapshot is invalid.
2. **Session guarantees** — read-your-writes and monotonic reads per client,
   which follow from causal consistency for single threads of execution.

Versions are identified by ``(key, timestamp, origin_dc)``: timestamps from
different data centers live in different clock domains (CC-LO uses per-server
Lamport clocks), so the origin DC is part of the identity and cross-DC
timestamps are never compared directly.  Candidate anomalies found through
per-key timestamp comparison are confirmed with an explicit reachability test
over the recorded dependency graph, so versions that are merely *concurrent*
with a newer one are not reported as violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

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
    #: Divergent final reads on quiesced histories.  Only the streaming
    #: checker populates this (opt-in, see
    #: :class:`repro.causal.streaming.StreamingChecker`); the monolithic
    #: checker leaves it empty, so reports stay comparable.
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


class CausalConsistencyChecker:
    """Validates recorded histories against the causal-consistency model."""

    def __init__(self) -> None:
        self._puts: dict[VersionId, RecordedPut] = {}
        self._rots: list[RecordedRot] = []
        # Memoised "newest version per key in the causal past" maps.  Versions
        # of the same key from different DCs are summarised separately (the
        # map value is a per-origin dict) so no cross-DC comparison happens.
        # Invalidation is a dirty flag rather than a clear-per-record: the
        # caches are dropped lazily on the first query after new PUTs, so a
        # record-everything-then-check run never throws warm entries away.
        self._closure_cache: dict[VersionId, dict[tuple[str, int], int]] = {}
        self._ancestor_cache: dict[tuple[VersionId, VersionId], bool] = {}
        self._caches_stale = False

    # -------------------------------------------------------------- recording
    def record_put(self, put: RecordedPut) -> None:
        """Record one PUT event."""
        self._puts[put.version_id] = put
        self._caches_stale = True

    def record_rot(self, rot: RecordedRot) -> None:
        """Record one completed ROT."""
        self._rots.append(rot)

    def record_history(self, puts: Iterable[RecordedPut],
                       rots: Iterable[RecordedRot], *,
                       source: str = "history") -> None:
        """Record many events at once: a recorded history, or one worker's
        :class:`~repro.runtime.process.ObservationChunk`.

        ``source`` is the streaming checker's keyword (its seal gate tracks
        progress per ingestion source); this checker holds everything until
        :meth:`check`, so it is accepted and ignored.
        """
        del source
        for put in puts:
            self.record_put(put)
        for rot in rots:
            self.record_rot(rot)

    def recorded_history(self) -> tuple[tuple[RecordedPut, ...],
                                        tuple[RecordedRot, ...]]:
        """Every recorded event: the inverse of :meth:`record_history`."""
        return tuple(self._puts.values()), tuple(self._rots)

    @property
    def recorded_puts(self) -> int:
        return len(self._puts)

    @property
    def recorded_rots(self) -> int:
        return len(self._rots)

    # ------------------------------------------------------------------ check
    def check(self) -> CheckerReport:
        """Run all checks and return a report (does not raise)."""
        report = CheckerReport(puts=len(self._puts), rots=len(self._rots))
        for rot in self._rots:
            self._check_snapshot(rot, report)
        self._check_sessions(report)
        return report

    # -------------------------------------------------------- causal structure
    def _refresh_caches(self) -> None:
        """Drop memoised closures if PUTs were recorded since the last query.

        A new PUT can extend the causal past of versions that depend on it,
        so any cached summary may be stale; correctness needs the drop, the
        dirty flag merely defers it to the next query so that recording N
        PUTs costs no N cache clears.
        """
        if self._caches_stale:
            self._closure_cache.clear()
            self._ancestor_cache.clear()
            self._caches_stale = False

    def _causal_past(self, version_id: VersionId) -> dict[tuple[str, int], int]:
        """Newest timestamp per ``(key, origin_dc)`` in the causal past.

        Built bottom-up with memoisation so long dependency chains (the norm
        with closed-loop clients) are expanded only once.
        """
        self._refresh_caches()
        cached = self._closure_cache.get(version_id)
        if cached is not None:
            return cached
        start = self._puts.get(version_id)
        if start is None:
            self._closure_cache[version_id] = {}
            return {}
        stack: list[tuple[RecordedPut, bool]] = [(start, False)]
        in_progress: set[VersionId] = set()
        while stack:
            current, expanded = stack.pop()
            if current.version_id in self._closure_cache:
                continue
            dep_puts = [self._puts[dep] for dep in current.dependencies
                        if dep in self._puts]
            if not expanded:
                in_progress.add(current.version_id)
                stack.append((current, True))
                for dep_put in dep_puts:
                    if dep_put.version_id not in self._closure_cache \
                            and dep_put.version_id not in in_progress:
                        stack.append((dep_put, False))
                continue
            newest: dict[tuple[str, int], int] = {}
            for key, ts, origin in current.dependencies:
                slot = (key, origin)
                if newest.get(slot, -1) < ts:
                    newest[slot] = ts
            for dep_put in dep_puts:
                for slot, ts in self._closure_cache.get(dep_put.version_id, {}).items():
                    if newest.get(slot, -1) < ts:
                        newest[slot] = ts
            self._closure_cache[current.version_id] = newest
        return self._closure_cache[version_id]

    def _is_ancestor(self, ancestor: VersionId, descendant: VersionId) -> bool:
        """Whether ``ancestor`` precedes ``descendant`` in the causal-cut order.

        The test uses the memoised per-``(key, origin)`` summary of the
        descendant's causal past: ``ancestor`` precedes ``descendant`` when the
        past contains a version of the same key *from the same origin DC* with
        a timestamp at least as large.  Timestamps of the same key and origin
        are assigned by one partition server, so this order is exactly the
        per-key convergence (last-writer-wins) order the protocols use to pick
        which version a snapshot may return; cross-DC timestamps are never
        compared.
        """
        if ancestor == descendant:
            return False
        self._refresh_caches()
        cache_key = (ancestor, descendant)
        cached = self._ancestor_cache.get(cache_key)
        if cached is not None:
            return cached
        past = self._causal_past(descendant)
        key, ts, origin = ancestor
        result = past.get((key, origin), -1) >= ts
        self._ancestor_cache[cache_key] = result
        return result

    # ------------------------------------------------------- snapshot checking
    def _check_snapshot(self, rot: RecordedRot, report: CheckerReport) -> None:
        returned: dict[str, RecordedRead] = {read.key: read for read in rot.reads}
        for read in rot.reads:
            version_id = read.version_id
            if version_id is None or version_id not in self._puts:
                # Preloaded versions have no recorded PUT and no dependencies.
                continue
            past = self._causal_past(version_id)
            for (dep_key, dep_origin), dep_ts in past.items():
                other = returned.get(dep_key)
                if other is None or dep_key == read.key:
                    continue
                required_id: VersionId = (dep_key, dep_ts, dep_origin)
                other_id = other.version_id
                if other_id == required_id:
                    continue
                candidate = (other_id is None
                             or (other.origin_dc == dep_origin
                                 and other.timestamp is not None
                                 and other.timestamp < dep_ts)
                             or (other.origin_dc != dep_origin))
                if not candidate:
                    continue
                # Confirm the anomaly: the returned version must itself be in
                # the causal past of the required one (otherwise the two are
                # concurrent and the snapshot is still a valid causal cut).
                # The preloaded initial version (timestamp 0, never recorded
                # as a PUT) precedes every recorded version of its key.
                returned_is_initial = (other_id is not None
                                       and other.timestamp == 0
                                       and other_id not in self._puts)
                if other_id is None or returned_is_initial \
                        or self._is_ancestor(other_id, required_id):
                    report.snapshot_violations.append(
                        f"ROT {rot.rot_id}: returned {dep_key}@"
                        f"{other.timestamp if other else None} but "
                        f"{read.key}@{read.timestamp} causally depends on "
                        f"{dep_key}@{dep_ts} (origin DC {dep_origin})")

    # -------------------------------------------------------- session checking
    def _check_sessions(self, report: CheckerReport) -> None:
        """Check read-your-writes and monotonic reads per client."""
        per_client: dict[str, list[tuple[int, str, object]]] = {}
        for put in self._puts.values():
            per_client.setdefault(put.client, []).append((put.sequence, "put", put))
        for rot in self._rots:
            per_client.setdefault(rot.client, []).append((rot.sequence, "rot", rot))
        for client, operations in per_client.items():
            operations.sort(key=lambda entry: entry[0])
            observed: dict[str, VersionId] = {}
            for _, kind, op in operations:
                if kind == "put":
                    put = op  # type: ignore[assignment]
                    observed[put.key] = put.version_id
                    continue
                rot = op  # type: ignore[assignment]
                for read in rot.reads:
                    previous = observed.get(read.key)
                    if previous is None:
                        if read.version_id is not None:
                            observed[read.key] = read.version_id
                        continue
                    current = read.version_id
                    went_backwards = (
                        current is None
                        or (current != previous
                            and self._is_ancestor(current, previous)))
                    if went_backwards:
                        report.session_violations.append(
                            f"client {client}: ROT {rot.rot_id} read "
                            f"{read.key}@{read.timestamp} after having observed "
                            f"{previous[1]} (origin DC {previous[2]})")
                    elif current is not None and previous != current \
                            and self._is_ancestor(previous, current):
                        observed[read.key] = current


__all__ = [
    "CausalConsistencyChecker",
    "CheckerReport",
    "RecordedPut",
    "RecordedRead",
    "RecordedRot",
    "VersionId",
]

"""Streaming GSS-windowed consistency checker: bounded memory, one pass.

:class:`~repro.causal.checker.CausalConsistencyChecker` buffers the entire
history and re-walks the dependency graph per ROT, which makes million-op
:class:`~repro.runtime.process.ProcessCluster` histories infeasible to check.
This module is the scalable sibling: a :class:`StreamingChecker` that ingests
the observation log *incrementally*, verifies it in **windows**, and retires
versions once every ingestion source has moved past them — the same idea the
paper's vector protocols use for the Global Stable Snapshot, applied to
offline validation.

Windowing model
---------------
Operations accumulate in arrival order into fixed-size windows of
``window_ops`` operations.  A full window *seals* — is handed to the
verifiers — only once the **global stable vector** covers it: for every
origin DC named by the window (by a put's timestamp, a dependency entry or a
read result), every ingestion source's running high-water mark for that
origin has reached the window's maximum.  Exactly like a GSS entry, the
stable vector is the entry-wise minimum over sources of per-origin maxima,
and a window below it can still receive causally relevant versions from a
lagging source, so it waits.  With a single source (synthetic histories, the
in-process runtime) the gate is always satisfied and windows seal purely by
op count.  If a source stalls, the buffered backlog is bounded: once
``window_ops * force_seal_factor`` operations are pending, the oldest window
seals anyway (missing puts then degrade exactly like the monolithic
checker's never-recorded puts: checks involving them are skipped, never
misreported).

``retire_lag`` windows after sealing, a window's puts are *retired* —
dropped from the live version index — so memory is O(window), not
O(history).  The documented horizon assumption is that a causal reference
(dependency, session predecessor, snapshot witness) points at most
``retire_lag`` sealed windows back; real runs satisfy this by construction
because the seal gate itself lags ingestion by replication delay, and the
checker benchmark validates a million-op history with a flat live-set curve.

Equivalence with the monolithic checker
---------------------------------------
The verifiers are literal re-implementations of the monolithic checks over
the live window (same candidate filter, same confirmation rule, same message
strings), and report assembly replays the monolithic ordering: snapshot
violations in ROT record order, session violations grouped per client with
clients ordered by first appearance (writers before pure readers).  On any
history whose references stay inside the retirement horizon the two checkers
produce equal :class:`~repro.causal.checker.CheckerReport` objects —
``tests/test_streaming_checker.py`` pins this for all three protocols and
for violations injected inside, across and at window boundaries.

Sealed windows are checked in process, against the warm frontier cache.  A
mode that checked them on a process pool existed until PR 23 and lost on
every core count measured — 0.66-0.70x of serial on two cores at 1.45x the
peak RSS, 0.30x on one — because each sealed window pickled the whole live
set and the worker rebuilt the frontiers cold: the cache is the algorithm.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional

from repro.causal.checker import (
    CheckerReport,
    RecordedPut,
    RecordedRot,
    VersionId,
)
from repro.errors import SimulationError
from repro.obs.events import WINDOW_RETIRE, WINDOW_SEAL

#: Default operations per window.  Large enough that frontier memoisation
#: amortises, small enough that a retire horizon of a few windows keeps the
#: live set in the tens of thousands of versions.
DEFAULT_WINDOW_OPS = 4096

#: Node name the checker emits trace events under.
CHECKER_NODE = "checker"


class _FrontierIndex:
    """Memoised causal frontiers over a (live) put index.

    The frontier of a version is the newest timestamp per ``(key,
    origin_dc)`` in its causal past — the same summary the monolithic
    checker memoises, computed by the same bottom-up expansion so the
    per-slot insertion order (and therefore violation order) is identical.
    A frontier is a pure function of the version's (immutable) dependency
    closure, so cached entries stay valid across window seals; retirement
    :meth:`evict`\\ s them so cache memory tracks the live set.  Within the
    retirement horizon a warm cache and the monolithic checker compute
    identical frontiers.
    """

    __slots__ = ("_puts", "_cache")

    def __init__(self, puts: dict[VersionId, RecordedPut]) -> None:
        self._puts = puts
        self._cache: dict[VersionId, dict[tuple[str, int], int]] = {}

    def reset(self) -> None:
        self._cache.clear()

    def evict(self, version_id: VersionId) -> None:
        self._cache.pop(version_id, None)

    def causal_past(self, version_id: VersionId) -> dict[tuple[str, int], int]:
        cached = self._cache.get(version_id)
        if cached is not None:
            return cached
        start = self._puts.get(version_id)
        if start is None:
            self._cache[version_id] = {}
            return {}
        stack: list[tuple[RecordedPut, bool]] = [(start, False)]
        in_progress: set[VersionId] = set()
        while stack:
            current, expanded = stack.pop()
            if current.version_id in self._cache:
                continue
            dep_puts = [self._puts[dep] for dep in current.dependencies
                        if dep in self._puts]
            if not expanded:
                in_progress.add(current.version_id)
                stack.append((current, True))
                for dep_put in dep_puts:
                    if dep_put.version_id not in self._cache \
                            and dep_put.version_id not in in_progress:
                        stack.append((dep_put, False))
                continue
            newest: dict[tuple[str, int], int] = {}
            for key, ts, origin in current.dependencies:
                slot = (key, origin)
                if newest.get(slot, -1) < ts:
                    newest[slot] = ts
            for dep_put in dep_puts:
                for slot, ts in self._cache.get(dep_put.version_id, {}).items():
                    if newest.get(slot, -1) < ts:
                        newest[slot] = ts
            self._cache[current.version_id] = newest
        return self._cache[version_id]

    def is_ancestor(self, ancestor: VersionId, descendant: VersionId) -> bool:
        if ancestor == descendant:
            return False
        past = self.causal_past(descendant)
        key, ts, origin = ancestor
        return past.get((key, origin), -1) >= ts


def snapshot_violations_for_rot(rot: RecordedRot,
                                puts: dict[VersionId, RecordedPut],
                                index: _FrontierIndex) -> list[str]:
    """The monolithic snapshot check for one ROT over the live put index.

    Same candidate filter, same concurrent-version confirmation, same
    message strings as ``CausalConsistencyChecker._check_snapshot`` — the
    streaming checker's equivalence guarantee rests on this being a literal
    re-statement.
    """
    violations: list[str] = []
    returned = {read.key: read for read in rot.reads}
    for read in rot.reads:
        version_id = read.version_id
        if version_id is None or version_id not in puts:
            # Preloaded versions have no recorded PUT and no dependencies.
            continue
        past = index.causal_past(version_id)
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
            returned_is_initial = (other_id is not None
                                   and other.timestamp == 0
                                   and other_id not in puts)
            if other_id is None or returned_is_initial \
                    or index.is_ancestor(other_id, required_id):
                violations.append(
                    f"ROT {rot.rot_id}: returned {dep_key}@"
                    f"{other.timestamp if other else None} but "
                    f"{read.key}@{read.timestamp} causally depends on "
                    f"{dep_key}@{dep_ts} (origin DC {dep_origin})")
    return violations


def iter_session_order(puts: Iterable[RecordedPut],
                       rots: Iterable[RecordedRot],
                       ) -> Iterator[tuple[str, object]]:
    """Yield ``("put", op)`` / ``("rot", op)`` in monolithic session order.

    The monolithic checker stable-sorts each client's operations by sequence
    with all puts recorded before all rots, so ties break put-first in
    record order.  Replaying a split ``(puts, rots)`` history through this
    order restores every client's true execution interleaving (client
    sequence numbers are shared across both kinds and strictly increase).
    """
    entries: list[tuple[int, int, int, str, object]] = [
        (put.sequence, 0, position, "put", put)
        for position, put in enumerate(puts)]
    entries.extend((rot.sequence, 1, position, "rot", rot)
                   for position, rot in enumerate(rots))
    entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    for _seq, _kind_rank, _position, kind, op in entries:
        yield kind, op


class ObservationBuffer:
    """Checker-shaped recorder of a client worker process.

    Clients call :meth:`record_put`/:meth:`record_rot` as on any checker;
    the worker :meth:`drain`\\ s the buffer into an
    :class:`~repro.runtime.process.ObservationChunk` every flush period and
    the parent folds the chunk into the run's checker — so worker memory is
    bounded by the flush period, not the run length.
    """

    def __init__(self) -> None:
        self._puts: list[RecordedPut] = []
        self._rots: list[RecordedRot] = []

    def record_put(self, put: RecordedPut) -> None:
        self._puts.append(put)

    def record_rot(self, rot: RecordedRot) -> None:
        self._rots.append(rot)

    @property
    def pending(self) -> int:
        return len(self._puts) + len(self._rots)

    def drain(self) -> tuple[tuple[RecordedPut, ...], tuple[RecordedRot, ...]]:
        puts, rots = tuple(self._puts), tuple(self._rots)
        self._puts.clear()
        self._rots.clear()
        return puts, rots


class StreamingChecker:
    """Bounded-memory, windowed causal-consistency checker.

    Parameters
    ----------
    window_ops:
        Operations per verification window.
    retire_lag:
        How many sealed windows a put stays live after its window seals;
        also the causal-reference horizon (see module docstring).
    force_seal_factor:
        Backstop on buffered-but-unsealed operations: the oldest full
        window force-seals once ``window_ops * force_seal_factor``
        operations are pending, so a stalled source cannot grow memory
        without bound.
    check_convergence:
        Also verify eventual convergence on *quiesced* histories: two
        clients whose final reads of a key return causally incomparable
        cross-DC versions indicate the replicas had not converged.  Off by
        default because abruptly-stopped realtime runs are not quiesced.
    tracer:
        Optional :class:`repro.obs.bus.EventBus`; seals and retirements are
        emitted as ``window_seal`` / ``window_retire`` events.
    """

    def __init__(self, *, window_ops: int = DEFAULT_WINDOW_OPS,
                 retire_lag: int = 2, force_seal_factor: int = 4,
                 check_convergence: bool = False, tracer=None) -> None:
        if window_ops < 1:
            raise SimulationError(f"window_ops must be >= 1, got {window_ops}")
        if retire_lag < 1:
            raise SimulationError(f"retire_lag must be >= 1, got {retire_lag}")
        if force_seal_factor < 1:
            raise SimulationError(
                f"force_seal_factor must be >= 1, got {force_seal_factor}")
        self.window_ops = window_ops
        self.retire_lag = retire_lag
        self.force_seal_factor = force_seal_factor
        self.check_convergence = check_convergence
        self.tracer = tracer

        #: Versions whose windows have not retired yet.
        self._live_puts: dict[VersionId, RecordedPut] = {}
        self._index = _FrontierIndex(self._live_puts)
        #: Open (still filling) window: ``(kind, op, rot_rank)`` triples.
        self._open: list[tuple[str, object, int]] = []
        self._open_high: dict[int, int] = {}
        #: Full windows awaiting their seal gate, oldest first.
        self._frozen: deque[tuple[list[tuple[str, object, int]],
                                  dict[int, int]]] = deque()
        #: Sealed windows awaiting retirement: ``(index, member versions)``.
        self._sealed_members: deque[tuple[int, list[VersionId]]] = deque()
        #: Per-source, per-origin running maximum timestamp (puts, their
        #: dependency entries, and read results all advance it).
        self._progress: dict[str, dict[int, int]] = {}

        self._next_window = 0
        self._next_rot_rank = 0
        self._client_put_rank: dict[str, int] = {}
        self._client_rot_rank: dict[str, int] = {}
        self._session_observed: dict[str, dict[str, VersionId]] = {}
        self._session_violations: dict[str, list[str]] = {}
        #: key -> client -> version returned by the client's last read.
        self._final_reads: dict[str, dict[str, Optional[VersionId]]] = {}

        #: Snapshot-check results of the sealed windows, accumulated across
        #: :meth:`finish` calls: ``(rot_rank, violations)`` pairs.
        self._snapshot_entries: list[tuple[int, list[str]]] = []

        self._distinct_puts = 0
        self._rot_count = 0
        self.windows_sealed = 0
        self.versions_retired = 0
        self.peak_live_versions = 0
        self.force_seals = 0

    # -------------------------------------------------------------- recording
    @property
    def recorded_puts(self) -> int:
        return self._distinct_puts

    @property
    def recorded_rots(self) -> int:
        return self._rot_count

    @property
    def live_versions(self) -> int:
        """Versions currently held in memory (the O(window) bound)."""
        return len(self._live_puts)

    def record_put(self, put: RecordedPut, *, source: str = "local") -> None:
        """Ingest one PUT (arrival order is the window order)."""
        self._client_put_rank.setdefault(put.client,
                                         len(self._client_put_rank))
        self._ingest_put(put, source)
        self._maybe_seal()

    def record_rot(self, rot: RecordedRot, *, source: str = "local") -> None:
        """Ingest one completed ROT."""
        self._client_rot_rank.setdefault(rot.client,
                                         len(self._client_rot_rank))
        rank = self._next_rot_rank
        self._next_rot_rank += 1
        self._ingest_rot(rot, source, rank)
        self._maybe_seal()

    def record_history(self, puts: Iterable[RecordedPut],
                       rots: Iterable[RecordedRot], *,
                       source: str = "history") -> None:
        """Ingest one batch (an observation chunk, or a recorded history).

        The batch is replayed in :func:`iter_session_order` so each client's
        put/rot interleaving matches its execution order even though the
        split ``(puts, rots)`` representation lost it; seal decisions wait
        for the whole batch so intra-batch references are always resolvable.
        """
        puts = list(puts)
        rots = list(rots)
        for put in puts:
            self._client_put_rank.setdefault(put.client,
                                             len(self._client_put_rank))
        for rot in rots:
            self._client_rot_rank.setdefault(rot.client,
                                             len(self._client_rot_rank))
        base_rank = self._next_rot_rank
        self._next_rot_rank += len(rots)
        entries: list[tuple[int, int, int, str, object]] = [
            (put.sequence, 0, position, "put", put)
            for position, put in enumerate(puts)]
        entries.extend((rot.sequence, 1, position, "rot", rot)
                       for position, rot in enumerate(rots))
        entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        for _seq, kind_rank, position, kind, op in entries:
            if kind_rank == 0:
                self._ingest_put(op, source)
            else:
                self._ingest_rot(op, source, base_rank + position)
        self._maybe_seal()

    # -------------------------------------------------------------- ingestion
    def _advance(self, source: str, origin: int, timestamp: int) -> None:
        if timestamp > self._open_high.get(origin, -1):
            self._open_high[origin] = timestamp
        progress = self._progress.get(source)
        if progress is None:
            progress = self._progress[source] = {}
        if timestamp > progress.get(origin, -1):
            progress[origin] = timestamp

    def _ingest_put(self, put: RecordedPut, source: str) -> None:
        if put.version_id not in self._live_puts:
            self._distinct_puts += 1
        self._live_puts[put.version_id] = put
        if len(self._live_puts) > self.peak_live_versions:
            self.peak_live_versions = len(self._live_puts)
        self._open.append(("put", put, -1))
        self._advance(source, put.origin_dc, put.timestamp)
        for _key, ts, origin in put.dependencies:
            self._advance(source, origin, ts)
        if len(self._open) >= self.window_ops:
            self._freeze_open()

    def _ingest_rot(self, rot: RecordedRot, source: str, rank: int) -> None:
        self._rot_count += 1
        self._open.append(("rot", rot, rank))
        for read in rot.reads:
            if read.timestamp is not None:
                self._advance(source, read.origin_dc, read.timestamp)
            if self.check_convergence:
                self._final_reads.setdefault(
                    read.key, {})[rot.client] = read.version_id
        if len(self._open) >= self.window_ops:
            self._freeze_open()

    def _freeze_open(self) -> None:
        self._frozen.append((self._open, self._open_high))
        self._open = []
        self._open_high = {}

    # ---------------------------------------------------------------- sealing
    def _gate_passes(self, high: dict[int, int]) -> bool:
        """Does the global stable vector cover this window's high-water?"""
        for progress in self._progress.values():
            for origin, timestamp in high.items():
                if progress.get(origin, -1) < timestamp:
                    return False
        return True

    def _maybe_seal(self) -> None:
        while self._frozen:
            buffered = (sum(len(ops) for ops, _high in self._frozen)
                        + len(self._open))
            ops, high = self._frozen[0]
            forced = buffered >= self.window_ops * self.force_seal_factor
            if not forced and not self._gate_passes(high):
                return
            if forced and not self._gate_passes(high):
                self.force_seals += 1
            self._frozen.popleft()
            self._seal_window(ops)

    def _seal_window(self, ops: list[tuple[str, object, int]]) -> None:
        index = self._next_window
        self._next_window += 1
        self.windows_sealed += 1
        for kind, op, _rank in ops:
            self._session_step(kind, op)
        rot_entries = tuple((rank, op) for kind, op, rank in ops
                            if kind == "rot")
        self._snapshot_entries.extend(
            (rank, violations) for rank, rot in rot_entries
            if (violations := snapshot_violations_for_rot(
                rot, self._live_puts, self._index)))
        if self.tracer is not None:
            self.tracer.emit(
                CHECKER_NODE, WINDOW_SEAL, name=f"window-{index}",
                data=(("ops", len(ops)), ("rots", len(rot_entries)),
                      ("live", len(self._live_puts))))
        members = [op.version_id for kind, op, _rank in ops if kind == "put"]
        self._sealed_members.append((index, members))
        self._retire_through(index - self.retire_lag)

    def _retire_through(self, horizon: int) -> None:
        while self._sealed_members and self._sealed_members[0][0] <= horizon:
            index, members = self._sealed_members.popleft()
            retired = 0
            for version_id in members:
                if self._live_puts.pop(version_id, None) is not None:
                    retired += 1
                self._index.evict(version_id)
            self.versions_retired += retired
            if self.tracer is not None:
                self.tracer.emit(
                    CHECKER_NODE, WINDOW_RETIRE, name=f"window-{index}",
                    data=(("versions", retired),
                          ("live", len(self._live_puts))))

    # --------------------------------------------------------------- sessions
    def _session_step(self, kind: str, op) -> None:
        """One operation of the monolithic per-client session replay."""
        if kind == "put":
            observed = self._session_observed.setdefault(op.client, {})
            observed[op.key] = op.version_id
            return
        rot = op
        observed = self._session_observed.setdefault(rot.client, {})
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
                    and self._index.is_ancestor(current, previous)))
            if went_backwards:
                self._session_violations.setdefault(rot.client, []).append(
                    f"client {rot.client}: ROT {rot.rot_id} read "
                    f"{read.key}@{read.timestamp} after having observed "
                    f"{previous[1]} (origin DC {previous[2]})")
            elif current is not None and previous != current \
                    and self._index.is_ancestor(previous, current):
                observed[read.key] = current

    def _client_order_key(self, client: str) -> tuple[int, int]:
        put_rank = self._client_put_rank.get(client)
        if put_rank is not None:
            return (0, put_rank)
        return (1, self._client_rot_rank.get(client, 0))

    # ------------------------------------------------------------ convergence
    def _check_convergence(self) -> list[str]:
        """Divergent final reads on a quiesced history (see class docstring).

        Same-origin differing finals are timestamp-ordered (one client is
        merely behind in the per-key last-writer-wins order) and are not
        divergence; only causally *incomparable* cross-DC finals are.  Pairs
        involving retired versions are skipped — their frontiers are gone,
        so incomparability cannot be confirmed.
        """
        violations: list[str] = []
        for key in sorted(self._final_reads):
            first_reader: dict[VersionId, str] = {}
            finals = self._final_reads[key]
            for client in sorted(finals):
                version_id = finals[client]
                if version_id is not None and version_id not in first_reader:
                    first_reader[version_id] = client
            versions = list(first_reader)
            for i, left in enumerate(versions):
                for right in versions[i + 1:]:
                    if left[2] == right[2]:
                        continue
                    if left not in self._live_puts \
                            or right not in self._live_puts:
                        continue
                    if self._index.is_ancestor(left, right) \
                            or self._index.is_ancestor(right, left):
                        continue
                    violations.append(
                        f"key {key}: divergent final reads: client "
                        f"{first_reader[left]} last read {key}@{left[1]} "
                        f"(origin DC {left[2]}) while client "
                        f"{first_reader[right]} last read {key}@{right[1]} "
                        f"(origin DC {right[2]}) and neither precedes the "
                        f"other")
        return violations

    # ------------------------------------------------------------------ final
    def finish(self) -> CheckerReport:
        """Seal the remainder and assemble the report.

        Re-entrant, like the monolithic checker's ``check()``: ingestion may
        continue after a mid-run report and a later ``finish()`` folds the
        new windows into the accumulated results.  At finish everything
        buffered has arrived, so the seal gate is waived for the tail
        windows.
        """
        while self._frozen:
            ops, _high = self._frozen.popleft()
            self._seal_window(ops)
        if self._open:
            ops, self._open, self._open_high = self._open, [], {}
            self._seal_window(ops)
        entries = sorted(self._snapshot_entries, key=lambda entry: entry[0])
        snapshot_violations = [message for _rank, messages in entries
                               for message in messages]
        session_violations = [
            message
            for client in sorted(self._session_violations,
                                 key=self._client_order_key)
            for message in self._session_violations[client]]
        convergence_violations = (self._check_convergence()
                                  if self.check_convergence else [])
        return CheckerReport(
            puts=self._distinct_puts, rots=self._rot_count,
            snapshot_violations=snapshot_violations,
            session_violations=session_violations,
            convergence_violations=convergence_violations)

    def check(self) -> CheckerReport:
        """Alias for :meth:`finish` (facade parity with the monolithic
        checker, so experiment runners drive either interchangeably)."""
        return self.finish()


__all__ = [
    "CHECKER_NODE",
    "DEFAULT_WINDOW_OPS",
    "ObservationBuffer",
    "StreamingChecker",
    "iter_session_order",
    "snapshot_violations_for_rot",
]

"""The causal-consistency checker: one pass, GSS-windowed, bounded memory.

Every protocol run can record its history (PUTs with their causal context
and ROT results) and hand it to a :class:`StreamingChecker`, which verifies
the guarantees the paper's system model requires (Section 2.2):

1. **Causally consistent snapshots** — if a ROT returns ``X`` for key ``x``
   and ``Y`` for key ``y``, there must be no ``X'`` with ``X ; X' ; Y``:
   for every version ``Y`` a ROT returns and every other key ``x`` it
   reads, the newest version of ``x`` per origin DC in ``Y``'s causal past
   must not be preceded by the version of ``x`` the ROT returned.
2. **Session guarantees** — read-your-writes and monotonic reads per
   client: no read returns a version that precedes one the client wrote or
   read before.
3. **Convergence** — once the run has quiesced
   (:meth:`StreamingChecker.mark_quiesced`), no two clients' last reads of
   a key return versions of different origins neither of which precedes
   the other.

Versions are ``(key, timestamp, origin_dc)``.  Timestamps from different
data centers live in different clock domains (CC-LO uses per-server
Lamport clocks), so they are never compared directly.  A version ``a`` of a
key *precedes* a version ``d`` of the same key when ``a`` is the preloaded
initial version (timestamp 0, written before everything), or when ``d``'s
recorded causal past holds a version of the key from ``a``'s origin at
least as new as ``a`` (one partition server stamps a key's versions from
one origin, in the order replicas converge in).  Versions that are merely
*concurrent* — two writes from one origin included — are never reported.
``tests/causal_oracle.py`` is the independent reference these checks are
tested against.

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
seals anyway (missing puts then degrade like never-recorded ones: checks
that need their causal past are skipped, never misreported).

``retire_lag`` full windows after sealing, a window's puts are *retired* —
dropped from the live version index — so memory is O(window), not
O(history).  The documented horizon assumption is that a causal reference
(dependency, session predecessor, snapshot witness) points at most
``retire_lag`` sealed windows back; real runs satisfy this by construction
because the seal gate itself lags ingestion by replication delay, and the
checker benchmark validates a million-op history with a flat live-set curve.

:meth:`StreamingChecker.offline` is the same checker with one window that
never fills, so nothing seals before :meth:`~StreamingChecker.check` and
nothing retires: the whole history is checked at once, with no horizon.

Sealed windows are checked in process, against the warm frontier cache.  A
mode that checked them on a process pool existed until PR 23 and lost on
every core count measured — 0.66-0.70x of serial on two cores at 1.45x the
peak RSS, 0.30x on one — because each sealed window pickled the whole live
set and the worker rebuilt the frontiers cold: the cache is the algorithm.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Iterable, Iterator, Optional

from repro.causal.checker import (
    CheckerReport,
    RecordedPut,
    RecordedRot,
    VersionId,
)
from repro.errors import ConfigurationError, SimulationError
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
    origin_dc)`` in its causal past, built bottom-up so long dependency
    chains (the norm with closed-loop clients) are expanded only once.  A
    frontier is built from the puts ingested so far, so it is cached only
    for a version whose put has arrived, and a walk notes every dependency
    whose put it did not find.  When a noted put arrives after all, the
    frontiers built without it lack its past: :meth:`arrived` drops the
    cache.  Retirement :meth:`retire`\\ s frontiers with their versions, so
    cache memory tracks the live set.  A retired version is missing for
    good, so a note is forgotten at the second retirement after it was
    made: a put that arrives later than that is treated like a
    never-recorded one (the horizon assumption of the module docstring).
    """

    __slots__ = ("_puts", "_cache", "_missing", "_missing_before")

    def __init__(self, puts: dict[VersionId, RecordedPut]) -> None:
        self._puts = puts
        self._cache: dict[VersionId, dict[tuple[str, int], int]] = {}
        self._missing: set[VersionId] = set()
        self._missing_before: set[VersionId] = set()

    def arrived(self, version_id: VersionId) -> None:
        if version_id in self._missing or version_id in self._missing_before:
            self._cache.clear()
            self._missing.clear()
            self._missing_before.clear()

    def retire(self, version_ids: list[VersionId]) -> None:
        for version_id in version_ids:
            self._cache.pop(version_id, None)
        self._missing_before, self._missing = self._missing, set()

    def causal_past(self, version_id: VersionId) -> dict[tuple[str, int], int]:
        cached = self._cache.get(version_id)
        if cached is not None:
            return cached
        start = self._puts.get(version_id)
        if start is None:
            return {}
        stack: list[tuple[RecordedPut, bool]] = [(start, False)]
        in_progress: set[VersionId] = set()
        while stack:
            current, expanded = stack.pop()
            if current.version_id in self._cache:
                continue
            dep_puts = []
            for dep in current.dependencies:
                dep_put = self._puts.get(dep)
                if dep_put is None:
                    self._missing.add(dep)
                else:
                    dep_puts.append(dep_put)
            if not expanded:
                in_progress.add(current.version_id)
                stack.append((current, True))
                for dep_put in dep_puts:
                    if dep_put.version_id not in self._cache \
                            and dep_put.version_id not in in_progress:
                        stack.append((dep_put, False))
                continue
            # Start from a copy of the largest dependency frontier: a
            # context mostly extends one predecessor's, so the merge below
            # touches only what the others add.
            pasts = sorted((self._cache.get(dep_put.version_id, {})
                            for dep_put in dep_puts), key=len)
            newest = dict(pasts.pop()) if pasts else {}
            for past in pasts:
                for slot, ts in past.items():
                    if newest.get(slot, -1) < ts:
                        newest[slot] = ts
            for key, ts, origin in current.dependencies:
                slot = (key, origin)
                if newest.get(slot, -1) < ts:
                    newest[slot] = ts
            self._cache[current.version_id] = newest
        return self._cache[version_id]

    def precedes(self, ancestor: VersionId, descendant: VersionId) -> bool:
        """Whether ``ancestor`` comes before ``descendant``, a version of
        the same key (the order defined in the module docstring)."""
        if ancestor == descendant:
            return False
        key, ts, origin = ancestor
        return ts == 0 \
            or self.causal_past(descendant).get((key, origin), -1) >= ts


def iter_session_order(puts: Iterable[RecordedPut],
                       rots: Iterable[RecordedRot],
                       ) -> Iterator[tuple[str, object]]:
    """Yield ``("put", op)`` / ``("rot", op)`` in session order.

    Client sequence numbers are shared across both kinds and strictly
    increase, so a stable sort by sequence (puts first, each kind in record
    order) restores every client's true put/rot interleaving, which the
    split ``(puts, rots)`` representation lost.
    """
    entries: list[tuple[int, int, int, str, object]] = [
        (put.sequence, 0, position, "put", put)
        for position, put in enumerate(puts)]
    entries.extend((rot.sequence, 1, position, "rot", rot)
                   for position, rot in enumerate(rots))
    entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    for _seq, _kind_rank, _position, kind, op in entries:
        yield kind, op


def require_recorder(checker) -> None:
    """Reject a ``checker=`` argument no client can record into."""
    if checker is not None and not (hasattr(checker, "record_put")
                                    and hasattr(checker, "record_rot")):
        raise ConfigurationError(
            f"checker must be a recorder with record_put/record_rot "
            f"(a StreamingChecker, an ObservationBuffer), got {checker!r}")


class ObservationBuffer:
    """Checker-shaped recorder of a client worker process.

    Clients call :meth:`record_put`/:meth:`record_rot` as on any checker;
    the worker :meth:`drain`\\ s the buffer into an
    :class:`~repro.runtime.process.ObservationChunk` every flush period and
    the parent folds the chunk into the run's checker — so worker memory is
    bounded by the flush period, not the run length.  A run that only needs
    the history (not a verdict) passes one as its ``checker``.
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
        How many full windows a put stays live after its window seals;
        also the causal-reference horizon (see module docstring).
    force_seal_factor:
        Backstop on buffered-but-unsealed operations: the oldest full
        window force-seals once ``window_ops * force_seal_factor``
        operations are pending, so a stalled source cannot grow memory
        without bound.
    tracer:
        Optional :class:`repro.obs.bus.EventBus`; seals and retirements are
        emitted as ``window_seal`` / ``window_retire`` events.
    """

    def __init__(self, *, window_ops: int = DEFAULT_WINDOW_OPS,
                 retire_lag: int = 2, force_seal_factor: int = 4,
                 tracer=None) -> None:
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
        self.tracer = tracer

        #: Versions whose windows have not retired yet.
        self._live_puts: dict[VersionId, RecordedPut] = {}
        self._index = _FrontierIndex(self._live_puts)
        #: Open (still filling) window: ``(kind, op)`` pairs, and how many
        #: of its operations :meth:`check` already sealed as a tail.
        self._open: list[tuple[str, object]] = []
        self._open_high: dict[int, int] = {}
        self._tail_ops = 0
        #: Full windows awaiting their seal gate, oldest first.
        self._frozen: deque[tuple[list[tuple[str, object]],
                                  dict[int, int]]] = deque()
        #: Sealed windows awaiting retirement: ``(index, member versions)``.
        self._sealed_members: deque[tuple[int, list[VersionId]]] = deque()
        #: Per-source, per-origin running maximum timestamp (puts, their
        #: dependency entries, and read results all advance it).
        self._progress: dict[str, dict[int, int]] = {}

        #: Full windows sealed so far: the retirement clock.
        self._next_window = 0
        #: client -> key -> the newest versions of the key the client wrote
        #: or read (pairwise concurrent; a dict keeps their order fixed).
        self._session_observed: dict[str, dict[str, dict[VersionId, None]]] = {}
        #: Whether :meth:`mark_quiesced` was called, and key -> client ->
        #: version returned by the client's last read since then.
        self._quiesced = False
        self._final_reads: dict[str, dict[str, Optional[VersionId]]] = {}
        #: Violations found by the sealed windows, in seal order.
        self._snapshot_violations: list[str] = []
        self._session_violations: list[str] = []

        self._distinct_puts = 0
        self._rot_count = 0
        self.windows_sealed = 0
        self.versions_retired = 0
        self.peak_live_versions = 0
        self.force_seals = 0

    @classmethod
    def offline(cls) -> StreamingChecker:
        """The whole history as one window that never retires."""
        return cls(window_ops=sys.maxsize)

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
        self._ingest_put(put, source)
        self._maybe_seal()

    def record_rot(self, rot: RecordedRot, *, source: str = "local") -> None:
        """Ingest one completed ROT."""
        self._ingest_rot(rot, source)
        self._maybe_seal()

    def record_history(self, puts: Iterable[RecordedPut],
                       rots: Iterable[RecordedRot], *,
                       source: str = "history") -> None:
        """Ingest one batch (an observation chunk, or a recorded history).

        The batch is replayed in :func:`iter_session_order` so each client's
        put/rot interleaving matches its execution order; seal decisions
        wait for the whole batch so intra-batch references are always
        resolvable.
        """
        for kind, op in iter_session_order(puts, rots):
            if kind == "put":
                self._ingest_put(op, source)
            else:
                self._ingest_rot(op, source)
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
            self._index.arrived(put.version_id)
        self._live_puts[put.version_id] = put
        if len(self._live_puts) > self.peak_live_versions:
            self.peak_live_versions = len(self._live_puts)
        self._advance(source, put.origin_dc, put.timestamp)
        for _key, ts, origin in put.dependencies:
            self._advance(source, origin, ts)
        self._append("put", put)

    def _ingest_rot(self, rot: RecordedRot, source: str) -> None:
        self._rot_count += 1
        for read in rot.reads:
            if read.timestamp is not None:
                self._advance(source, read.origin_dc, read.timestamp)
            if self._quiesced:
                self._final_reads.setdefault(
                    read.key, {})[rot.client] = read.version_id
        self._append("rot", rot)

    def _append(self, kind: str, op) -> None:
        """Add to the open window; freeze it once it is full."""
        self._open.append((kind, op))
        if len(self._open) + self._tail_ops >= self.window_ops:
            self._frozen.append((self._open, self._open_high))
            self._open, self._open_high, self._tail_ops = [], {}, 0

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
            self._seal_window(ops, full=True)

    def _seal_window(self, ops: list[tuple[str, object]], *,
                     full: bool) -> None:
        """Verify one window, or the tail of the open one :meth:`check`
        cuts: a tail shares the index of the window it was cut from and
        retires with it, so mid-run checks move no window boundary."""
        index = self._next_window
        self.windows_sealed += 1
        rots = 0
        for kind, op in ops:
            if kind == "rot":
                rots += 1
                self._check_snapshot(op)
            self._session_step(kind, op)
        if self.tracer is not None:
            self.tracer.emit(
                CHECKER_NODE, WINDOW_SEAL, name=f"window-{index}",
                data=(("ops", len(ops)), ("rots", rots),
                      ("live", len(self._live_puts))))
        members = [op.version_id for kind, op in ops if kind == "put"]
        self._sealed_members.append((index, members))
        if full:
            self._next_window += 1
            self._retire_through(index - self.retire_lag)

    def _retire_through(self, horizon: int) -> None:
        retiring: list[VersionId] = []
        while self._sealed_members and self._sealed_members[0][0] <= horizon:
            index, members = self._sealed_members.popleft()
            retired = 0
            for version_id in members:
                if self._live_puts.pop(version_id, None) is not None:
                    retired += 1
            retiring.extend(members)
            self.versions_retired += retired
            if self.tracer is not None:
                self.tracer.emit(
                    CHECKER_NODE, WINDOW_RETIRE, name=f"window-{index}",
                    data=(("versions", retired),
                          ("live", len(self._live_puts))))
        if retiring:
            self._index.retire(retiring)

    # -------------------------------------------------------------- snapshots
    def _check_snapshot(self, rot: RecordedRot) -> None:
        """No version a ROT returns may precede the newest version of its
        key, per origin, in the past of another version it returns."""
        returned = {read.key: read for read in rot.reads}
        for read in rot.reads:
            if read.version_id not in self._live_puts:
                # No recorded put (preloaded, missing or retired): no past.
                continue
            past = self._index.causal_past(read.version_id)
            for (dep_key, dep_origin), dep_ts in past.items():
                other = returned.get(dep_key)
                if other is None or dep_key == read.key:
                    continue
                required: VersionId = (dep_key, dep_ts, dep_origin)
                if other.timestamp is None or self._index.precedes(
                        other.version_id, required):
                    self._snapshot_violations.append(
                        f"ROT {rot.rot_id}: returned {dep_key}@"
                        f"{other.timestamp} but "
                        f"{read.key}@{read.timestamp} causally depends "
                        f"on {dep_key}@{dep_ts} (origin DC {dep_origin})")

    # --------------------------------------------------------------- sessions
    def _session_step(self, kind: str, op) -> None:
        """One operation of its client's read-your-writes/monotonic replay."""
        observed = self._session_observed.setdefault(op.client, {})
        if kind == "put":
            self._observe(observed, op.version_id)
            return
        for read in op.reads:
            current = read.version_id
            newer = next((seen for seen in observed.get(read.key, ())
                          if current is None
                          or self._index.precedes(current, seen)), None)
            if newer is not None:
                self._session_violations.append(
                    f"client {op.client}: ROT {op.rot_id} read "
                    f"{read.key}@{read.timestamp} after having observed "
                    f"{newer[1]} (origin DC {newer[2]})")
            elif current is not None:
                self._observe(observed, current)

    def _observe(self, observed: dict[str, dict[VersionId, None]],
                 version_id: VersionId) -> None:
        """Add a version the client saw; drop the ones it supersedes."""
        seen = observed.get(version_id[0], {})
        if version_id in seen:
            return
        newest = {other: None for other in seen
                  if not self._index.precedes(other, version_id)}
        newest[version_id] = None
        observed[version_id[0]] = newest

    # ------------------------------------------------------------ convergence
    def mark_quiesced(self) -> None:
        """Declare the run quiesced: no write is in flight or still
        replicating, so every DC holds every version.  :meth:`check` judges
        convergence on the reads of the ROTs recorded after this call: two
        clients whose last such reads of a key return causally incomparable
        cross-DC versions name replicas that did not converge.  Without the
        call no read is judged for convergence (a run stopped mid-load is
        not quiesced)."""
        self._quiesced = True

    def _divergent_reads(self) -> list[str]:
        """Divergent final reads since :meth:`mark_quiesced`.

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
                    if self._index.precedes(left, right) \
                            or self._index.precedes(right, left):
                        continue
                    violations.append(
                        f"key {key}: divergent final reads: client "
                        f"{first_reader[left]} last read {key}@{left[1]} "
                        f"(origin DC {left[2]}) while client "
                        f"{first_reader[right]} last read {key}@{right[1]} "
                        f"(origin DC {right[2]}) and neither precedes the "
                        f"other")
        return violations

    # ------------------------------------------------------------------ check
    def check(self) -> CheckerReport:
        """Seal everything buffered and report every violation so far.

        Re-entrant: ingestion may continue after a mid-run report and a
        later ``check()`` folds the new windows into the accumulated
        results.  Everything buffered has arrived, so the seal gate is
        waived; the partial open window seals as a tail that stays part of
        its window, so mid-run checks never retire early.
        """
        while self._frozen:
            ops, _high = self._frozen.popleft()
            self._seal_window(ops, full=True)
        if self._open:
            ops, self._open, self._open_high = self._open, [], {}
            self._tail_ops += len(ops)
            self._seal_window(ops, full=False)
        return CheckerReport(
            puts=self._distinct_puts, rots=self._rot_count,
            snapshot_violations=list(self._snapshot_violations),
            session_violations=list(self._session_violations),
            convergence_violations=self._divergent_reads())


__all__ = [
    "CHECKER_NODE",
    "DEFAULT_WINDOW_OPS",
    "ObservationBuffer",
    "StreamingChecker",
    "iter_session_order",
    "require_recorder",
]

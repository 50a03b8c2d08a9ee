"""The definition of CC-LO's reader records: the scan implementation.

This is ``repro.core.cclo.readers`` as it stood before replies were answered
from a per-key index, kept unchanged as the reference the indexed
implementation is compared with (``tests/test_cclo_readers_equivalence.py``):
every record of a key lives in one ``rot_id -> entry`` dict, an id recorded
again keeps its place in it, and every readers check rescans the dict,
dropping what is older than the GC window and — with one id per client —
keeping each client's highest logical time, the first such entry in dict
order on a tie.  What a reply contains, when an entry expires and what the
counters read are *defined* by this file; only the order of ids inside a
reply is not.
"""

from __future__ import annotations

from typing import Sequence


class ReaderEntry:
    """One recorded read: who read, when (logical time), and for which client.

    A slotted class rather than a dataclass: entries are created on every
    read and scanned in bulk by every readers check, which makes their
    construction and attribute loads one of the hottest paths of the CC-LO
    simulation (the cost the paper's Theorem 1 is about).
    """

    __slots__ = ("rot_id", "client_id", "logical_time", "recorded_at")

    def __init__(self, rot_id: str, client_id: str, logical_time: int,
                 recorded_at: float) -> None:
        self.rot_id = rot_id
        self.client_id = client_id
        self.logical_time = logical_time
        self.recorded_at = recorded_at

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ReaderEntry({self.rot_id!r}, {self.client_id!r}, "
                f"t={self.logical_time}, at={self.recorded_at:.6f})")


class ReaderRecords:
    """Per-partition reader bookkeeping."""

    def __init__(self, gc_window_seconds: float, one_id_per_client: bool) -> None:
        self._gc_window = gc_window_seconds
        self._one_id_per_client = one_id_per_client
        self._current: dict[str, dict[str, ReaderEntry]] = {}
        self._old: dict[str, dict[str, ReaderEntry]] = {}
        self.entries_expired = 0

    # --------------------------------------------------------------- recording
    def record_current_reader(self, key: str, rot_id: str, client_id: str,
                              logical_time: int, now: float) -> None:
        """Record that ``rot_id`` read the latest visible version of ``key``."""
        self._current.setdefault(key, {})[rot_id] = ReaderEntry(
            rot_id=rot_id, client_id=client_id, logical_time=logical_time,
            recorded_at=now)

    def record_old_reader(self, key: str, rot_id: str, client_id: str,
                          logical_time: int, now: float) -> None:
        """Record that ``rot_id`` was served an *older* version of ``key``.

        This happens when the ROT was barred from the latest version by an
        old-reader record attached to it; the ROT must then also be barred
        from any future version that causally depends on the versions it
        missed, so it is added to the old readers of the key directly.
        """
        self._old.setdefault(key, {})[rot_id] = ReaderEntry(
            rot_id=rot_id, client_id=client_id, logical_time=logical_time,
            recorded_at=now)

    def on_version_visible(self, key: str, now: float) -> int:
        """A new version of ``key`` became visible: demote its current readers.

        Every ROT that read the previously-latest version now has read a
        version that is no longer the most recent one, i.e. it became an old
        reader of ``key``.  Returns the number of demoted entries.
        """
        readers = self._current.pop(key, None)
        if not readers:
            return 0
        bucket = self._old.setdefault(key, {})
        for rot_id, entry in readers.items():
            bucket[rot_id] = ReaderEntry(entry.rot_id, entry.client_id,
                                         entry.logical_time, now)
        return len(readers)

    # --------------------------------------------------------------- queries
    def old_readers_of(self, key: str, now: float) -> list[tuple[str, int]]:
        """Old readers of ``key`` for a readers-check response.

        Applies the GC window (stale entries are dropped lazily) and, when
        enabled, the one-id-per-client compression.
        """
        bucket = self._old.get(key)
        if not bucket:
            return []
        fresh: dict[str, ReaderEntry] = {}
        expired: list[str] = []
        for rot_id, entry in bucket.items():
            if now - entry.recorded_at > self._gc_window:
                expired.append(rot_id)
            else:
                fresh[rot_id] = entry
        for rot_id in expired:
            del bucket[rot_id]
        self.entries_expired += len(expired)
        entries = list(fresh.values())
        if self._one_id_per_client:
            newest_per_client: dict[str, ReaderEntry] = {}
            for entry in entries:
                best = newest_per_client.get(entry.client_id)
                if best is None or entry.logical_time > best.logical_time:
                    newest_per_client[entry.client_id] = entry
            entries = list(newest_per_client.values())
        return [(entry.rot_id, entry.logical_time) for entry in entries]

    def collect_for_response(self, keys: Sequence[str],
                             now: float) -> list[tuple[str, int]]:
        """Old readers of several keys, compressed for one readers-check reply.

        The paper's optimisation applies per *response*, not per key: a reply
        carries at most one ROT id per client — the client's most recent one —
        across all the dependency keys it covers.  Within a response the same
        ROT id is also deduplicated even if it appears in the records of
        several keys.
        """
        combined: dict[str, ReaderEntry] = {}
        combined_get = combined.get
        gc_window = self._gc_window
        one_id_per_client = self._one_id_per_client
        old = self._old
        for key in keys:
            bucket = old.get(key)
            if not bucket:
                continue
            expired: list[str] = []
            for rot_id, entry in bucket.items():
                if now - entry.recorded_at > gc_window:
                    expired.append(rot_id)
                    continue
                group_key = entry.client_id if one_id_per_client else entry.rot_id
                best = combined_get(group_key)
                if best is None or entry.logical_time > best.logical_time:
                    combined[group_key] = entry
            for rot_id in expired:
                del bucket[rot_id]
            self.entries_expired += len(expired)
        return [(entry.rot_id, entry.logical_time) for entry in combined.values()]

    def collect_garbage(self, now: float) -> int:
        """Eagerly drop expired old-reader entries; returns how many."""
        removed = 0
        for key in list(self._old):
            bucket = self._old[key]
            expired = [rot_id for rot_id, entry in bucket.items()
                       if now - entry.recorded_at > self._gc_window]
            for rot_id in expired:
                del bucket[rot_id]
            removed += len(expired)
            if not bucket:
                del self._old[key]
        self.entries_expired += removed
        return removed

    # ------------------------------------------------------------- statistics
    def current_reader_count(self, key: str) -> int:
        """Number of recorded current readers of ``key`` (diagnostics)."""
        return len(self._current.get(key, {}))

    def old_reader_count(self, key: str) -> int:
        """Number of recorded old readers of ``key`` (diagnostics)."""
        return len(self._old.get(key, {}))

    def total_tracked_entries(self) -> int:
        """Total number of reader entries currently retained."""
        return (sum(len(bucket) for bucket in self._current.values())
                + sum(len(bucket) for bucket in self._old.values()))

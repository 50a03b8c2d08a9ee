"""Reader and old-reader records for CC-LO (the COPS-SNOW design).

Every partition remembers, per key:

* the **current readers** — ROT ids that read the latest visible version,
  together with the logical time of the read; and
* the **old readers** — ROT ids that read a version that has since been
  overwritten (or that were served an older version because they were barred
  from the latest one).  These are the ids a readers check collects.

The records implement the paper's two CC-LO optimisations: entries are
garbage-collected ``gc_window`` seconds after they become old readers, and a
readers-check response can be compressed to at most one ROT id per client
(the most recent one), which is safe because a client has at most one ROT in
flight at a time.  A check costs what it must communicate — one id per client
and dependency key — not what the window holds, because a key's old readers
(:class:`_KeyRecords`) are kept in three views:

* by ROT id: an id recorded again replaces its record;
* in recording order (the same dict, a re-recorded id moving to its end),
  which is the order records expire in because ``now`` — simulator time,
  ``time.monotonic`` — never decreases: expiry pops from the front;
* per client (``named``, only when replies are compressed): the one record a
  reply names — the client's highest logical time, on a tie the id that
  entered the key first.  Recording updates it in place; it is rebuilt by a
  scan of the key only when the named record expires before a later one of
  its client (``outlived``) or is recorded again with a lower logical time.

The order of ids *inside* a reply is unspecified: ``PendingCheck.merge``,
``Version.old_readers`` and the read path use them as a set.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional, Sequence

from repro.core.common.kernel import ClientKernel


@dataclass(slots=True, eq=False)
class ReaderEntry:
    """One old reader of a key: who read, when (logical time), for which
    client; ``rank`` orders the ids of a key by when they entered it."""

    rot_id: str
    client_id: str
    logical_time: int
    recorded_at: float
    rank: int
    #: Read on a named record only: its client has a record in this key that
    #: was recorded, and so expires, later.
    outlived: bool = False


class _KeyRecords(dict):
    """The old readers of one key: ``rot_id -> ReaderEntry``, oldest
    recording first; ``named`` is ``client_id -> the record a reply names``,
    or ``None`` when replies are not compressed (they name every record)."""

    __slots__ = ("named", "entered")

    def __init__(self, one_id_per_client: bool) -> None:
        self.named = {} if one_id_per_client else None
        self.entered = 0

    def record(self, rot_id: str, client_id: Optional[str], logical_time: int,
               now: float) -> None:
        """(Re-)record ``rot_id`` last; no ``client_id`` means the id's."""
        entry = self.pop(rot_id, None)
        if entry is None:
            entry = ReaderEntry(
                rot_id, client_id or ClientKernel.rot_client_id(rot_id),
                logical_time, now, self.entered)
            self.entered += 1
        lowered = logical_time < entry.logical_time
        entry.logical_time = logical_time
        entry.recorded_at = now
        self[rot_id] = entry
        named = self.named
        if named is None:
            return
        best = named.get(entry.client_id)
        if best is entry and lowered:
            self._rename(entry.client_id)
        elif best is None or best is entry or logical_time > best.logical_time \
                or (logical_time == best.logical_time
                    and entry.rank < best.rank):
            named[entry.client_id] = entry
            entry.outlived = False
        else:
            best.outlived = True

    def expire(self, now: float, gc_window: float) -> int:
        """Drop the records older than the window; returns how many."""
        expired = []
        for entry in self.values():
            if now - entry.recorded_at <= gc_window:
                break
            expired.append(entry)
        for entry in expired:
            del self[entry.rot_id]
        named = self.named
        if named is not None:
            for entry in expired:
                if named.get(entry.client_id) is entry:
                    del named[entry.client_id]
                    if entry.outlived and self:
                        self._rename(entry.client_id)
        return len(expired)

    def _rename(self, client_id: str) -> None:
        """Name the record of ``client_id`` anew, by a scan of the key."""
        theirs = [entry for entry in self.values()
                  if entry.client_id == client_id]
        if theirs:
            best = self.named[client_id] = max(
                theirs, key=lambda entry: (entry.logical_time, -entry.rank))
            best.outlived = best is not theirs[-1]


class ReaderRecords:
    """Per-partition reader bookkeeping."""

    def __init__(self, gc_window_seconds: float, one_id_per_client: bool) -> None:
        self._gc_window = gc_window_seconds
        #: key -> rot_id -> logical_time (the client is the id's)
        self._current: dict[str, dict[str, int]] = {}
        self._old = defaultdict(partial(_KeyRecords, one_id_per_client))
        self.entries_expired = 0

    # --------------------------------------------------------------- recording
    def record_current_reader(self, key: str, rot_id: str, client_id: str,
                              logical_time: int, now: float) -> None:
        """Record that ``rot_id`` read the latest visible version of ``key``
        (kept: the logical time; the client is the id's, ``now`` is restamped
        when the reader is demoted)."""
        self._current.setdefault(key, {})[rot_id] = logical_time

    def record_old_reader(self, key: str, rot_id: str, client_id: str,
                          logical_time: int, now: float) -> None:
        """Record that ``rot_id`` was served an *older* version of ``key``:
        an old-reader record barred it from the latest one, so it must also
        be barred from any future version that depends on what it missed."""
        self._old[key].record(rot_id, client_id, logical_time, now)

    def record_old_readers(self, key: str, readers: Mapping[str, int],
                           now: float) -> None:
        """Record each ``rot_id -> logical_time`` as an old reader of ``key``
        (demoted readers; the ids a version inherits from its readers check)."""
        if readers:
            record = self._old[key].record
            for rot_id, logical_time in readers.items():
                record(rot_id, None, logical_time, now)

    def on_version_visible(self, key: str, now: float) -> int:
        """A new version of ``key`` became visible: every ROT that read the
        previously-latest one becomes an old reader of ``key``.  Returns the
        number of demoted entries."""
        readers = self._current.pop(key, {})
        self.record_old_readers(key, readers, now)
        return len(readers)

    # --------------------------------------------------------------- queries
    def old_readers_of(self, key: str, now: float) -> list[tuple[str, int]]:
        """Old readers of ``key`` as a readers-check response names them."""
        return self.collect_for_response((key,), now)

    def collect_for_response(self, keys: Sequence[str],
                             now: float) -> list[tuple[str, int]]:
        """Old readers of several keys, compressed for one readers-check reply.

        Stale entries are dropped lazily.  The paper's optimisation applies
        per *response*, not per key: a reply carries at most one ROT id per
        client — the client's most recent one — across all the dependency
        keys it covers; uncompressed, a ROT id found in the records of
        several keys is still named once.
        """
        combined: dict[str, ReaderEntry] = {}
        combined_get = combined.get
        for key in keys:
            bucket = self._old.get(key)
            if not bucket:
                continue
            self.entries_expired += bucket.expire(now, self._gc_window)
            for group, entry in (bucket if bucket.named is None
                                 else bucket.named).items():
                best = combined_get(group)
                if best is None or entry.logical_time > best.logical_time:
                    combined[group] = entry
        return [(entry.rot_id, entry.logical_time) for entry in combined.values()]

    def collect_garbage(self, now: float) -> int:
        """Eagerly drop expired old-reader entries; returns how many."""
        removed = 0
        for key, bucket in list(self._old.items()):
            removed += bucket.expire(now, self._gc_window)
            if not bucket:
                del self._old[key]
        self.entries_expired += removed
        return removed

    # ------------------------------------------------------------- statistics
    def current_reader_count(self, key: str) -> int:
        """Number of recorded current readers of ``key`` (diagnostics)."""
        return len(self._current.get(key, ()))

    def old_reader_count(self, key: str) -> int:
        """Number of recorded old readers of ``key`` (``sim/costs.py``)."""
        return len(self._old.get(key, ()))

    def total_tracked_entries(self) -> int:
        """Total number of reader entries currently retained."""
        return (sum(len(bucket) for bucket in self._current.values())
                + sum(len(bucket) for bucket in self._old.values()))


__all__ = ["ReaderEntry", "ReaderRecords"]

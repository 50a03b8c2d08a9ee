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
  ``time.monotonic`` — never decreases: a key is expired only when its first
  record is past the window, and expiry pops from the front;
* per client (``named``, only when replies are compressed): the one record a
  reply names — the client's highest logical time, on a tie the id that
  entered the key first.  Recording updates it in place; it is rebuilt by a
  scan of the key only when the named record expires before a later one of
  its client (``outlived``) or is recorded again with a lower logical time.

An old reader is an immutable tuple ``(rot_id, client_id, logical_time,
recorded_at, rank)`` (``rank`` orders the ids of a key by when they entered
it).  Recording an id again builds a new tuple and puts it in both views that
held the old one, so "is this the named record" stays an ``is`` test.  Such
tuples hold only strings and numbers, so the garbage collector stops tracking
them; recording, demoting, inheriting and expiring a reader builds no other
object it tracks and calls no Python function per id: a whole mapping is
recorded in one loop (:meth:`_KeyRecords.record_all`).

The order of ids *inside* a reply is unspecified: ``PendingCheck.merge``,
``Version.old_readers`` and the read path use them as a set.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import partial
from typing import Mapping, Sequence


class _KeyRecords(dict):
    """The old readers of one key: ``rot_id -> (rot_id, client_id,
    logical_time, recorded_at, rank)`` (indexed by position below), oldest
    recording first; ``named`` is ``client_id -> the record a reply names``, or
    ``None`` when replies are not compressed (they name every record);
    ``outlived`` holds the clients whose named record has a later record of
    theirs in this key (which expires later), ``None`` until the first."""

    __slots__ = ("named", "outlived", "entered")

    def __init__(self, one_id_per_client: bool) -> None:
        self.named = {} if one_id_per_client else None
        self.outlived = None
        self.entered = 0

    def record_all(self, readers: Mapping[str, int], now: float) -> None:
        """(Re-)record each ``rot_id -> logical_time`` last, in order.  The
        client of an id is the id up to its last ``#``, interned
        (:meth:`ClientKernel.rot_client_id`'s rule): the window holds tens of
        thousands of records, a few dozen clients."""
        named = self.named
        outlived = self.outlived
        entered = self.entered
        pop = self.pop
        intern = sys.intern
        for rot_id, logical_time in readers.items():
            old = pop(rot_id, None)
            if old is None:
                client_id = intern(rot_id[:rot_id.rindex("#")])
                rank = entered
                entered += 1
            else:
                client_id = old[1]
                rank = old[4]
            record = self[rot_id] = (rot_id, client_id, logical_time, now, rank)
            if named is None:
                continue
            best = named.get(client_id)
            if best is None:
                named[client_id] = record
            elif best is old and logical_time < old[2]:
                self._rename(client_id)
                outlived = self.outlived
            elif best is old or logical_time > best[2] \
                    or (logical_time == best[2] and rank < best[4]):
                # The record is its client's last, so it outlives no other.
                named[client_id] = record
                if outlived and client_id in outlived:
                    outlived.remove(client_id)
            elif outlived is None:
                outlived = self.outlived = {client_id}
            elif client_id not in outlived:
                outlived.add(client_id)
        self.entered = entered

    def expire(self, now: float, gc_window: float) -> int:
        """Drop the records older than the window; returns how many."""
        expired = []
        for record in self.values():
            if now - record[3] <= gc_window:
                break
            expired.append(record)
        for record in expired:
            del self[record[0]]
        named = self.named
        if named is not None:
            outlived = self.outlived
            for record in expired:
                client_id = record[1]
                if named.get(client_id) is record:
                    del named[client_id]
                    if outlived and client_id in outlived:
                        outlived.remove(client_id)
                        if self:
                            self._rename(client_id)
        return len(expired)

    def _rename(self, client_id: str) -> None:
        """Name the record of ``client_id`` anew, by a scan of the key."""
        theirs = [record for record in self.values()
                  if record[1] == client_id]
        if not theirs:
            return
        best = self.named[client_id] = max(
            theirs, key=lambda record: (record[2], -record[4]))
        if best is not theirs[-1]:
            if self.outlived is None:
                self.outlived = set()
            self.outlived.add(client_id)
        elif self.outlived:
            self.outlived.discard(client_id)


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
        be barred from any future version that depends on what it missed
        (the client is the id's)."""
        self._old[key].record_all({rot_id: logical_time}, now)

    def record_old_readers(self, key: str, readers: Mapping[str, int],
                           now: float) -> None:
        """Record each ``rot_id -> logical_time`` as an old reader of ``key``
        (demoted readers; the ids a version inherits from its readers check)."""
        if readers:
            self._old[key].record_all(readers, now)

    def on_version_visible(self, key: str, now: float) -> int:
        """A new version of ``key`` became visible: every ROT that read the
        previously-latest one becomes an old reader of ``key``.  Returns the
        number of demoted entries."""
        readers = self._current.pop(key, None)
        if not readers:
            return 0
        self._old[key].record_all(readers, now)
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
        combined = None
        gc_window = self._gc_window
        old_get = self._old.get
        for key in keys:
            bucket = old_get(key)
            if not bucket:
                continue
            for first in bucket.values():  # the oldest record
                if now - first[3] > gc_window:
                    self.entries_expired += bucket.expire(now, gc_window)
                break
            view = bucket if bucket.named is None else bucket.named
            if combined is None:
                combined = dict(view)
                combined_get = combined.get
                continue
            for group, record in view.items():
                best = combined_get(group)
                if best is None or record[2] > best[2]:
                    combined[group] = record
        if not combined:
            return []
        return [(record[0], record[2]) for record in combined.values()]

    def collect_garbage(self, now: float) -> int:
        """Eagerly drop expired old-reader entries; returns how many."""
        removed = 0
        gc_window = self._gc_window
        old = self._old
        for key, bucket in list(old.items()):
            for first in bucket.values():  # the oldest record
                if now - first[3] > gc_window:
                    removed += bucket.expire(now, gc_window)
                break
            if not bucket:
                del old[key]
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


__all__ = ["ReaderRecords"]

"""Deterministic key-to-partition assignment.

The paper's system model (Section 2.3) shards the data set into ``N > 1``
partitions by a hash function; each key is deterministically assigned to one
partition, a PUT is sent to that partition and a ROT fans out to the
partitions storing the requested keys.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.errors import ConfigurationError
from repro.wire.intern import MAX_INTERNED_KEYS


class _PartitionMemo(dict):
    """``memo[key]`` is the partition of ``key``, a plain dict lookup once the
    key has been seen.  Bounded like :func:`repro.wire.intern.intern_key`:
    when full it stops admitting (no eviction churn on adversarial keys)."""

    def __init__(self, num_partitions: int) -> None:
        super().__init__()
        self._num_partitions = num_partitions

    def __missing__(self, key: str) -> int:
        # A structured key is ASCII decimal digits before the colon
        # (``str.isdigit`` alone also accepts superscripts, which ``int``
        # rejects, and digits of other scripts); anything else is hashed.
        head, separator, _ = key.partition(":")
        if separator and head.isascii() and head.isdigit():
            partition = int(head) % self._num_partitions
        else:
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
            partition = int.from_bytes(digest, "big") % self._num_partitions
        if len(self) < MAX_INTERNED_KEYS:
            self[key] = partition
        return partition


#: ``_KEY_ROWS[partition][index]`` is the one shared structured key of that
#: value (see :meth:`HashPartitioner.structured_key`); ``_interned_keys``
#: counts the keys in all rows together.
_KEY_ROWS: dict[int, dict[int, str]] = {}
_interned_keys = 0


class HashPartitioner:
    """Maps keys to partition indices with a stable hash.

    Python's built-in ``hash`` is randomised per process, so a stable digest
    (blake2b) is used instead; partition assignment must be identical across
    runs for experiments to be reproducible.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ConfigurationError(
                f"need at least one partition, got {num_partitions}")
        self._num_partitions = num_partitions
        self._memo = _PartitionMemo(num_partitions)

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @staticmethod
    def structured_key(partition: int, index: int) -> str:
        """Build a key whose partition assignment is explicit.

        The workload generator mirrors the paper's setup of "one key per
        partition per ROT, 1M keys per partition"; generating millions of keys
        by rejection sampling against a hash would be wasteful, so structured
        keys encode their partition directly (``"<partition>:<index>"``) and
        :meth:`partition_of` honours the encoding.

        A key is one shared string per ``(partition, index)``: the preloaded
        stores, every generator and the partition memo hold the same object,
        so drawing a key formats nothing and every dict it meets compares it
        by identity.  The table is bounded like
        :func:`repro.wire.intern.intern_key`: once it holds
        ``MAX_INTERNED_KEYS`` keys it stops admitting and hands out fresh,
        equal strings.
        """
        global _interned_keys
        row = _KEY_ROWS.get(partition)
        key = row.get(index) if row is not None else None
        if key is None:
            key = f"{partition}:{index}"
            if _interned_keys < MAX_INTERNED_KEYS:
                HashPartitioner.structured_key_row(partition)[index] = key
                _interned_keys += 1
        return key

    @staticmethod
    def structured_key_row(partition: int) -> dict[int, str]:
        """The live row of the shared key table for ``partition``:
        ``row.get(index)`` is :meth:`structured_key` ``(partition, index)``
        once that key is in the table, ``None`` before."""
        row = _KEY_ROWS.get(partition)
        if row is None:
            row = _KEY_ROWS[partition] = {}
        return row

    def partition_of(self, key: str) -> int:
        """Partition index that stores ``key``."""
        return self._memo[key]

    def group_by_partition(self, keys: Iterable[str]) -> dict[int, list[str]]:
        """Group ``keys`` by the partition that stores them (order preserved)."""
        groups: dict[int, list[str]] = {}
        memo = self._memo
        for key in keys:
            groups.setdefault(memo[key], []).append(key)
        return groups

    def keys_for_partition(self, partition: int, num_keys: int,
                           prefix: str = "key") -> list[str]:
        """Generate ``num_keys`` distinct keys that hash to ``partition``.

        Used by the workload generator so that a ROT spanning ``p`` partitions
        can pick exactly one key on each of ``p`` distinct partitions, as in
        the paper's workloads.
        """
        if not 0 <= partition < self._num_partitions:
            raise ConfigurationError(
                f"partition {partition} out of range [0, {self._num_partitions})")
        found: list[str] = []
        candidate = 0
        while len(found) < num_keys:
            key = f"{prefix}-{candidate}"
            if self.partition_of(key) == partition:
                found.append(key)
            candidate += 1
        return found


__all__ = ["HashPartitioner"]

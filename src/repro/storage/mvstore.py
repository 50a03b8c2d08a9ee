"""Per-partition multi-version store.

Every partition server owns one :class:`MultiVersionStore`.  Versions of the
same key are kept in a list ordered by insertion; reads walk the list from the
newest version backwards applying a protocol-supplied predicate (snapshot
membership, visibility, old-reader exclusion).

Versions are retained until one of two collections drops them:

* the cap every real CC store needs, on every install: keep at most
  ``max_versions_per_key`` versions per key (the newest ones), never
  collecting the most recent visible version (so a chain whose newest
  versions are all invisible may exceed the cap until one turns visible);
* CC-LO's window trim (:meth:`MultiVersionStore.collect_superseded`), each
  time a version of the key turns visible: a version superseded by one that
  has been visible for a full reader window can no longer be read, because
  every ROT barred from that newer version was named by its readers check
  before it turned visible, and the protocol already assumes such a ROT
  reads within one window of being named (its reader records expire then).

A retention policy (:meth:`MultiVersionStore.set_retention_policy`) may veto
either collection.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from repro.errors import StorageError
from repro.storage.version import Version

#: Predicate deciding whether a version may be returned for a given read.
VersionPredicate = Callable[[Version], bool]

#: Retention policy: given a key's version chain (oldest first) and the
#: number of versions the cap or the window trim would collect from its
#: front, return how many may actually go.
RetentionPolicy = Callable[[list[Version], int], int]


class MultiVersionStore:
    """A multi-version key-value store for one partition."""

    def __init__(self, max_versions_per_key: int = 32) -> None:
        if max_versions_per_key < 1:
            raise StorageError("max_versions_per_key must be at least 1")
        self._chains: dict[str, list[Version]] = {}
        self._max_versions = max_versions_per_key
        self._retention_policy: Optional[RetentionPolicy] = None
        self.puts_applied = 0
        self.versions_collected = 0

    # ----------------------------------------------------------------- writes
    def install(self, version: Version) -> Version:
        """Install a new version of ``version.key`` and return it."""
        chain = self._chains.setdefault(version.key, [])
        chain.append(version)
        self.puts_applied += 1
        if len(chain) > self._max_versions:
            self._collect(chain)
        return version

    def set_retention_policy(self, policy: Optional[RetentionPolicy]) -> None:
        """Constrain version collection (stable-snapshot / active-reader GC).

        The policy receives the chain (oldest first) and the trim the cap
        or the window (:meth:`collect_superseded`) asks for, and returns how
        many of the oldest versions may really be collected — real causal
        stores gate version GC on the stable snapshot and the oldest active
        read.  This matters under faults: a partition freezes the stable
        snapshot (and a draining post-heal backlog keeps it stale) while
        writes keep truncating hot-key chains, so unconstrained eviction
        would leave in-flight snapshots with nothing to read.  Chains may
        then temporarily exceed the cap, exactly like a real store's version
        GC stalling during a partition.  The fault controller installs
        protocol-appropriate policies; scenario-free runs never set one, so
        their eviction behaviour is unchanged.
        """
        self._retention_policy = policy

    def _collect(self, chain: list[Version]) -> None:
        """Trim the oldest versions beyond the retention limit, stopping
        short of the newest visible one."""
        excess = len(chain) - self._max_versions
        newest_visible = len(chain) - 1
        while newest_visible >= 0 and not chain[newest_visible].visible:
            newest_visible -= 1
        if 0 <= newest_visible < excess:
            excess = newest_visible
        if excess <= 0:
            return
        if self._retention_policy is not None:
            excess = self._retention_policy(chain, excess)
            if excess <= 0:
                return
        del chain[:excess]
        self.versions_collected += excess

    def collect_superseded(self, key: str, horizon: float) -> None:
        """Collect the front of ``key``'s chain that versions visible since
        ``horizon`` supersede (CC-LO's window trim).

        A version goes when it is visible, the next one has been visible
        since ``horizon`` (``visible_at <= horizon``), and the next version of
        its origin DC is visible with at least its timestamp, so the newest
        visible version of every origin survives and with it every answer to
        "is a version of origin ``o`` at or after ``t`` visible?".  The first
        version that fails stops the trim, which therefore costs one step per
        collected version plus the look-ahead for the one that stops it.  The
        retention policy, if any, may keep part of the trimmed prefix.
        """
        chain = self._chains[key]
        size = len(chain)
        cut = 0
        while cut + 1 < size:
            version = chain[cut]
            successor = chain[cut + 1]
            if not (version.visible and successor.visible
                    and successor.visible_at <= horizon):
                break
            origin = version.origin_dc
            later = cut + 1
            while later < size and chain[later].origin_dc != origin:
                later += 1
            if later == size or not chain[later].visible \
                    or chain[later].timestamp < version.timestamp:
                break
            cut += 1
        if cut and self._retention_policy is not None:
            cut = self._retention_policy(chain, cut)
        if cut > 0:
            del chain[:cut]
            self.versions_collected += cut

    # ------------------------------------------------------------------ reads
    def latest(self, key: str,
               predicate: Optional[VersionPredicate] = None) -> Optional[Version]:
        """Return the newest version of ``key`` satisfying ``predicate``.

        Returns ``None`` when the key does not exist or no version satisfies
        the predicate (the protocol decides how to surface that: the paper's
        API returns the bottom value in that case).
        """
        chain = self._chains.get(key)
        if not chain:
            return None
        if predicate is None:
            return chain[-1]
        for version in reversed(chain):
            if predicate(version):
                return version
        return None

    def latest_visible(self, key: str) -> Optional[Version]:
        """Return the newest visible version of ``key``."""
        return self.latest(key, lambda v: v.visible)

    def versions(self, key: str) -> tuple[Version, ...]:
        """All retained versions of ``key``, oldest first."""
        return tuple(self._chains.get(key, ()))

    def keys(self) -> Iterator[str]:
        """Iterate over all keys with at least one retained version."""
        return iter(self._chains.keys())

    def contains(self, key: str) -> bool:
        """Whether at least one version of ``key`` is stored."""
        return key in self._chains

    def version_count(self, key: Optional[str] = None) -> int:
        """Number of retained versions, for one key or in total."""
        if key is not None:
            return len(self._chains.get(key, ()))
        return sum(len(chain) for chain in self._chains.values())

    # ---------------------------------------------------------------- preload
    def preload(self, versions: Iterable[Version]) -> None:
        """Bulk-install initial versions without counting them as PUTs.

        The harness uses this to populate the store before a run, mirroring
        the paper's 1M-keys-per-partition preloading step.
        """
        for version in versions:
            chain = self._chains.setdefault(version.key, [])
            chain.append(version)

    def __len__(self) -> int:
        return len(self._chains)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MultiVersionStore(keys={len(self._chains)}, "
                f"versions={self.version_count()})")


__all__ = ["MultiVersionStore", "RetentionPolicy", "VersionPredicate"]

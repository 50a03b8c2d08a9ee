"""Per-partition multi-version store.

Every partition server owns one :class:`MultiVersionStore`.  Versions of the
same key are kept in a list ordered by insertion; reads walk the list from the
newest version backwards applying a protocol-supplied predicate (snapshot
membership, visibility, old-reader exclusion).

:meth:`MultiVersionStore.install` collects nothing; each protocol family
asks for its own collection under its own rule:

* Contrarian and Cure: :meth:`MultiVersionStore.collect_below_floor`, after
  every install, under a snapshot floor that every snapshot still to be read
  dominates (the vector kernel computes it and argues why);
* CC-LO: :meth:`MultiVersionStore.collect_superseded`, each time a version
  of the key turns visible: a version superseded by one that has been
  visible for a full reader window can no longer be read, because every ROT
  barred from that newer version was named by its readers check before it
  turned visible, and the protocol already assumes such a ROT reads within
  one window of being named (its reader records expire then).

No cap bounds a chain: it grows while its protocol's rule holds versions
back (a stalled stable snapshot, a long reader window).  A retention policy
(:meth:`MultiVersionStore.set_retention_policy`) may veto the window trim.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from repro.storage.version import Version

#: Predicate deciding whether a version may be returned for a given read.
VersionPredicate = Callable[[Version], bool]

#: Retention policy: given a key's version chain (oldest first) and the
#: number of versions the window trim would collect from its front, return
#: how many may actually go.
RetentionPolicy = Callable[[list[Version], int], int]


class MultiVersionStore:
    """A multi-version key-value store for one partition."""

    def __init__(self) -> None:
        self._chains: dict[str, list[Version]] = {}
        self._retention_policy: Optional[RetentionPolicy] = None
        self.puts_applied = 0
        self.versions_collected = 0

    # ----------------------------------------------------------------- writes
    def install(self, version: Version) -> Version:
        """Install a new version of ``version.key`` and return it."""
        chain = self._chains.setdefault(version.key, [])
        chain.append(version)
        self.puts_applied += 1
        return version

    def set_retention_policy(self, policy: Optional[RetentionPolicy]) -> None:
        """Constrain CC-LO's window trim (:meth:`collect_superseded`).

        The policy receives the chain (oldest first) and the trim the window
        asks for, and returns how many of the oldest versions may really be
        collected.  Only the fault controller installs one.
        """
        self._retention_policy = policy

    def collect_below_floor(self, key: str, floor: tuple[int, ...]) -> None:
        """Drop the front of ``key``'s chain while the *next* version's
        dependency vector is at or below ``floor``.

        A snapshot that dominates ``floor`` admits that next version, so a
        read under it answers the same before and after.  The first version
        that fails stops the trim: one comparison per collected version
        plus one.
        """
        chain = self._chains[key]
        last = len(chain) - 1
        cut = 0
        while cut < last:
            for entry, bound in zip(chain[cut + 1].dependency_vector, floor):
                if entry > bound:
                    break
            else:
                cut += 1
                continue
            break
        if cut:
            del chain[:cut]
            self.versions_collected += cut

    def collect_superseded(self, key: str, horizon: float) -> None:
        """Collect the front of ``key``'s chain that versions visible since
        ``horizon`` supersede (CC-LO's window trim).

        A version goes when it is visible, the next one has been visible
        since ``horizon`` (``visible_at <= horizon``), and a later version of
        its origin DC is visible with at least its timestamp, so the newest
        visible version of every origin survives and with it every answer to
        "is a version of origin ``o`` at or after ``t`` visible?".  The
        look-ahead passes over versions of the origin with a smaller
        timestamp: replication installs an origin's versions in the order
        their readers checks finish, not in timestamp order, and a trim that
        stopped at the first such version would never pass it.  The first
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
            stamp = version.timestamp
            later = cut + 1
            while later < size:
                other = chain[later]
                if other.origin_dc == origin and other.visible \
                        and other.timestamp >= stamp:
                    break
                later += 1
            if later == size:
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

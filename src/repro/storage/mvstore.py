"""Per-partition multi-version store.

Every partition server owns one :class:`MultiVersionStore`.  Versions of the
same key are kept in a list in ``(timestamp, origin_dc)`` order, oldest
first, whatever order they arrive in (:meth:`MultiVersionStore.install`);
reads walk the list from the newest version backwards applying a
protocol-supplied predicate (snapshot membership, visibility, old-reader
exclusion).  So every protocol reads "the most recent version" under one
last-writer-wins order, and two replicas that hold the same versions of a
key answer a read that admits them all with the same one, in whatever order
replication delivered them.  The kernels argue why the order also keeps a
read causal (:class:`~repro.core.vector.kernel.VectorServerKernel`,
:class:`~repro.core.cclo.kernel.CcloKernel`).

No install collects anything; each protocol family asks for its own
collection under its own rule:

* Contrarian and Cure: :meth:`MultiVersionStore.collect_below_floor`, after
  every install, under a snapshot floor that every snapshot still to be read
  dominates (the vector kernel computes it and argues why);
* CC-LO: :meth:`MultiVersionStore.collect_superseded`, each time a version
  of the key turns visible: a version superseded by one that has been
  visible for a full reader window can no longer be read, because every ROT
  barred from that newer version was named by its readers check before it
  turned visible, and the protocol already assumes such a ROT reads within
  one window of being named (its reader records expire then).

The same assumption releases a CC-LO version's ``old_readers``: one window
after the version turned visible, no ROT it bars can still read, so the
kernel puts the shared empty record back
(:class:`~repro.core.cclo.kernel.CcloKernel`).

No cap bounds a chain: it grows while its protocol's rule holds versions
back (a stalled stable snapshot, a long reader window).
"""
from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional

from repro.storage.version import Version

#: Predicate deciding whether a version may be returned for a given read.
VersionPredicate = Callable[[Version], bool]

#: The version order of every chain: timestamp, ties broken by origin DC.
_TIMESTAMP_ORDER = attrgetter("timestamp", "origin_dc")


class MultiVersionStore:
    """A multi-version key-value store for one partition."""

    def __init__(self) -> None:
        self._chains: dict[str, list[Version]] = {}
        self.puts_applied = 0
        self.versions_collected = 0

    # ----------------------------------------------------------------- writes
    def install(self, version: Version) -> Version:
        """Install ``version`` at its ``(timestamp, origin_dc)`` position in
        its key's chain and return it.

        A local PUT carries a timestamp above every one its server has
        seen, so it lands at the end; a replicated version may overtake an
        older one that arrived before it.  A version with the same
        ``(timestamp, origin_dc)`` as a stored one goes after it: only one
        origin writes such a pair, and its replicas receive its versions in
        the same FIFO order.
        """
        insort(self._chains.setdefault(version.key, []), version,
               key=_TIMESTAMP_ORDER)
        self.puts_applied += 1
        return version

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
        its origin DC is visible, so the newest visible version of every
        origin survives and with it every answer to "is a version of origin
        ``o`` at or after ``t`` visible?".  The chain is in timestamp order
        (:meth:`install`), so a later version of the origin has a larger
        timestamp.  The first version that fails stops the trim,
        which therefore costs one step per collected version plus the
        look-ahead for the one that stops it.
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
            while later < size:
                other = chain[later]
                if other.origin_dc == origin and other.visible:
                    break
                later += 1
            if later == size:
                break
            cut += 1
        if cut:
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


__all__ = ["MultiVersionStore", "VersionPredicate"]

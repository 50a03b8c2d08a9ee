"""Explicit dependency tracking for COPS-style protocols (CC-LO).

COPS, Eiger and COPS-SNOW encode causality as explicit dependencies: the
client remembers which versions it has observed since its last PUT, and a PUT
carries that list so the server can (a) check the dependencies are installed
before making the new version visible in a remote DC and (b), in COPS-SNOW,
run the *readers check* against the partitions storing those dependencies.

After a PUT completes, the new version subsumes the previously accumulated
dependencies (anything read earlier is a transitive dependency of the PUT), so
the context collapses to just the PUT itself — the "nearest dependencies"
optimisation of COPS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.common.records import record


@record
class Dependency:
    """One causal dependency: a specific version of a key."""

    key: str
    timestamp: int
    partition: int
    origin_dc: int = 0

    def as_pair(self) -> tuple[str, int]:
        """The ``(key, timestamp)`` encoding stored on versions."""
        return (self.key, self.timestamp)

    def as_triple(self) -> tuple[str, int, int]:
        """The ``(key, timestamp, origin_dc)`` encoding carried by CC-LO PUTs.

        The origin DC is needed by the remote dependency check: a replica must
        wait for the version *from that DC* with that timestamp, since
        timestamps from different DCs are not comparable.
        """
        return (self.key, self.timestamp, self.origin_dc)


@dataclass
class ClientDependencyContext:
    """The causal context a CC-LO client attaches to its PUTs."""

    _deps: dict[str, Dependency] = field(default_factory=dict)

    def observe_read(self, key: str, timestamp: int, partition: int,
                     origin_dc: int = 0) -> None:
        """Record that the client observed ``key`` at ``timestamp``.

        Only the newest observed version per key is retained — older versions
        are subsumed.
        """
        existing = self._deps.get(key)
        if existing is None or existing.timestamp < timestamp:
            self._deps[key] = Dependency(key, timestamp, partition, origin_dc)

    def observe_reads(self, results: Iterable[Any],
                      partition_of: Callable[[str], int]) -> None:
        """Record what a completed ROT returned: :meth:`observe_read` for
        every result that found a version (``timestamp`` not ``None``), in
        one frame; ``partition_of`` is asked only for a key that is kept."""
        deps = self._deps
        for result in results:
            timestamp = result.timestamp
            if timestamp is None:
                continue
            key = result.key
            existing = deps.get(key)
            if existing is None or existing.timestamp < timestamp:
                deps[key] = Dependency(key, timestamp, partition_of(key),
                                       result.origin_dc)

    def observe_write(self, key: str, timestamp: int, partition: int,
                      origin_dc: int = 0) -> None:
        """Record a completed PUT: it subsumes everything observed before it."""
        self._deps.clear()
        self._deps[key] = Dependency(key, timestamp, partition, origin_dc)

    def dependencies(self) -> tuple[Dependency, ...]:
        """The current nearest dependencies, in deterministic order."""
        return tuple(sorted(self._deps.values(), key=lambda d: (d.key, d.timestamp)))

    def dependency_partitions(self) -> tuple[int, ...]:
        """Distinct partitions that store at least one dependency."""
        return tuple(sorted({dep.partition for dep in self._deps.values()}))

    def __len__(self) -> int:
        return len(self._deps)


__all__ = ["ClientDependencyContext", "Dependency"]

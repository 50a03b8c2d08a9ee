"""Deterministic synthetic causal histories for checker benchmarks.

The checker benchmark (``benchmarks/run_checker_benchmark.py``) needs
million-operation histories that are (a) reproducible bit-for-bit from a
seed, (b) *violation-free* — so a reported violation always means a checker
bug, never workload noise — and (c) generated in O(keys × lag) memory, so
the measured peak belongs to the checker under test rather than the
generator.

The generator maintains a virtual global put log and gives every client a
monotone **visibility cut** into it: a prefix index that only advances
(``max(previous cut, log length - visibility_lag, own last put)``).  Each
ROT returns, per key, the newest version at or below the client's cut.
Because every read comes from one prefix cut, every dependency of a
returned version lies inside that same prefix, and per-origin timestamps
increase along the log — so snapshots are causally consistent and sessions
monotone by construction (the properties the checker verifies).  The
``own last put`` term keeps read-your-writes; the ``- visibility_lag`` term
models replication lag while bounding how stale any read can be, which also
keeps every causal reference inside the streaming checker's retirement
horizon for any reasonable window size.

Dependencies mirror the runtime's client contexts: each put carries the
client's last ``context_size`` observed versions, so frontier computation
does real transitive work instead of degenerating to empty dep lists.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.causal.checker import RecordedPut, RecordedRead, RecordedRot
from repro.errors import ConfigurationError

#: One generated operation: ``("put", RecordedPut)`` or ``("rot", RecordedRot)``.
SynthOp = tuple[str, Union[RecordedPut, RecordedRot]]


@dataclass(frozen=True)
class SynthParameters:
    """Shape of the synthetic workload (defaults match the benchmark)."""

    clients: int = 8
    keys: int = 32
    dcs: int = 2
    write_fraction: float = 0.5
    reads_per_rot: int = 2
    #: Dependency-context entries carried per client (the runtime's
    #: dependency metadata analogue).
    context_size: int = 4
    #: How far (in log entries) a client's visibility cut may trail the
    #: global put log — the synthetic replication lag.
    visibility_lag: int = 48
    seed: int = 1234

    def validate(self) -> None:
        if self.clients < 1:
            raise ConfigurationError(f"clients must be >= 1: {self.clients}")
        if self.keys < 1:
            raise ConfigurationError(f"keys must be >= 1: {self.keys}")
        if self.dcs < 1:
            raise ConfigurationError(f"dcs must be >= 1: {self.dcs}")
        if not 0.0 < self.write_fraction < 1.0:
            raise ConfigurationError(
                f"write_fraction must be in (0, 1): {self.write_fraction}")
        if self.reads_per_rot < 1:
            raise ConfigurationError(
                f"reads_per_rot must be >= 1: {self.reads_per_rot}")
        if self.context_size < 0:
            raise ConfigurationError(
                f"context_size must be >= 0: {self.context_size}")
        if self.visibility_lag < 0:
            raise ConfigurationError(
                f"visibility_lag must be >= 0: {self.visibility_lag}")


def _latest_at(versions: deque, cut: int) -> Optional[tuple[int, int, int]]:
    """Newest ``(index, timestamp, origin)`` entry with index <= cut."""
    for entry in reversed(versions):
        if entry[0] <= cut:
            return entry
    return None


def generate_history(total_ops: int,
                     params: Optional[SynthParameters] = None,
                     ) -> Iterator[SynthOp]:
    """Yield ``total_ops`` operations of a violation-free causal history.

    A generator so million-op histories can be streamed straight into a
    :class:`~repro.causal.streaming.StreamingChecker` without ever being
    materialised; :func:`materialize` collects the same stream into a
    recorded history's ``(puts, rots)`` shape.
    """
    params = params or SynthParameters()
    params.validate()
    if total_ops < 0:
        raise ConfigurationError(f"total_ops must be >= 0: {total_ops}")
    rng = random.Random(params.seed)
    clients = [f"client-{i}" for i in range(params.clients)]
    key_names = [f"key-{i:03d}" for i in range(params.keys)]
    sequences = {client: 0 for client in clients}
    cuts = {client: 0 for client in clients}
    own_put = {client: 0 for client in clients}
    contexts: dict[str, list[tuple[str, int, int]]] = {
        client: [] for client in clients}
    timestamps = [0] * params.dcs
    #: Per-key version log entries ``(global index, timestamp, origin)``,
    #: pruned below to O(visibility_lag) each.
    store: dict[str, deque] = {key: deque() for key in key_names}
    log_length = 0
    rot_count = 0

    def observe(client: str, version: tuple[str, int, int]) -> None:
        context = contexts[client]
        if version in context:
            context.remove(version)
        context.append(version)
        if len(context) > params.context_size:
            del context[0]

    for _ in range(total_ops):
        client = clients[rng.randrange(params.clients)]
        sequences[client] += 1
        cut = max(cuts[client], log_length - params.visibility_lag,
                  own_put[client])
        cuts[client] = cut
        if rng.random() < params.write_fraction:
            origin = rng.randrange(params.dcs)
            timestamps[origin] += 1
            key = key_names[rng.randrange(params.keys)]
            put = RecordedPut(key=key, timestamp=timestamps[origin],
                              origin_dc=origin, client=client,
                              sequence=sequences[client],
                              dependencies=tuple(contexts[client]))
            log_length += 1
            own_put[client] = log_length
            versions = store[key]
            versions.append((log_length, put.timestamp, origin))
            # Keep the newest entry at/below every possible cut (cuts are
            # always >= log_length - visibility_lag) plus everything newer.
            floor = log_length - params.visibility_lag
            while len(versions) > 1 and versions[1][0] <= floor:
                versions.popleft()
            observe(client, (key, put.timestamp, origin))
            yield "put", put
        else:
            rot_count += 1
            keys = rng.sample(key_names,
                              k=min(params.reads_per_rot, params.keys))
            reads = []
            for key in keys:
                entry = _latest_at(store[key], cut)
                if entry is None:
                    # Preloaded initial version, never written within the cut.
                    reads.append(RecordedRead(key=key, timestamp=0,
                                              origin_dc=0))
                else:
                    _index, timestamp, origin = entry
                    reads.append(RecordedRead(key=key, timestamp=timestamp,
                                              origin_dc=origin))
                    observe(client, (key, timestamp, origin))
            yield "rot", RecordedRot(rot_id=f"synth-{rot_count}",
                                     client=client,
                                     sequence=sequences[client],
                                     reads=tuple(reads))


def materialize(total_ops: int,
                params: Optional[SynthParameters] = None,
                ) -> tuple[list[RecordedPut], list[RecordedRot]]:
    """Collect :func:`generate_history` into ``(puts, rots)`` lists, each
    in stream order."""
    puts: list[RecordedPut] = []
    rots: list[RecordedRot] = []
    for kind, op in generate_history(total_ops, params):
        (puts if kind == "put" else rots).append(op)
    return puts, rots


__all__ = ["SynthOp", "SynthParameters", "generate_history", "materialize"]

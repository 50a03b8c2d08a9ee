"""Sans-I/O kernels of CC-LO (the COPS-SNOW design).

:class:`CcloKernel` holds the full server-side protocol — one-round reads
with old-reader recording, the readers check on every PUT, the remote
dependency check and the fault-hardened ordered-replication mode — as a pure
state machine; :class:`CcloClientKernel` holds the client side (explicit
nearest dependencies, one read request per involved partition).  Both emit
:mod:`repro.core.common.kernel` effects and never import the simulator;
:mod:`repro.core.common.host` interprets the effects, on the discrete-event
simulator (:mod:`repro.sim.drivers`) or an asyncio loop
(:mod:`repro.runtime.nodes`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.causal.dependencies import ClientDependencyContext
from repro.clocks.lamport import LamportClock
from repro.clocks.units import milliseconds
from repro.core.cclo.readers import ReaderRecords
from repro.core.common.kernel import (
    Addr,
    ClientKernel,
    PutOutcome,
    RotOutcome,
    ServerKernel,
    TimerSpec,
)
from repro.core.common.messages import (
    CcloPutReply,
    CcloPutRequest,
    CcloReplicateUpdate,
    OneRoundReadReply,
    OneRoundReadRequest,
    PendingRot,
    ReadResult,
    ReadersCheckReply,
    ReadersCheckRequest,
)
from repro.errors import ProtocolError
from repro.obs.events import REPLICATE_APPLY, VISIBLE
from repro.storage.mvstore import MultiVersionStore
from repro.storage.version import Version
from repro.wire.intern import intern_key

PROTOCOL_NAME = "cc-lo"


@dataclass(slots=True)
class PendingCheck:
    """State of an in-progress readers check at the writing partition."""

    version: Version
    client: Optional[Addr]
    expected_replies: int
    collected: dict[str, int] = field(default_factory=dict)
    cumulative_ids: int = 0
    partitions_contacted: int = 0
    replicate_after: bool = True

    def merge(self, old_readers: Sequence[tuple[str, int]]) -> None:
        self.cumulative_ids += len(old_readers)
        for rot_id, logical_time in old_readers:
            previous = self.collected.get(rot_id)
            if previous is None or logical_time > previous:
                self.collected[rot_id] = logical_time


@dataclass
class WaitingRemoteCheck:
    """A remote readers-check request waiting for dependencies to be installed."""

    sender: Addr
    request: ReadersCheckRequest
    missing: set[tuple[str, int, int]]


@dataclass
class WaitingLocalCheck:
    """The local-partition leg of a readers check waiting for dependencies.

    Replicated updates must not become visible before their dependencies;
    the remote legs of the readers check enforce that with
    ``require_present``, and in fault-hardened mode the local leg (the
    dependencies stored on the written key's own partition) waits here under
    the same rule.
    """

    check_id: str
    keys: tuple[str, ...]
    missing: set[tuple[str, int, int]]


class CcloKernel(ServerKernel):
    """The partition-server state machine of the latency-optimal design."""

    protocol_name = PROTOCOL_NAME

    def __init__(self, *, node_id: str, dc_id: int, partition_index: int,
                 num_dcs: int, num_partitions: int, partitioner,
                 gc_window_seconds: float, one_id_per_client: bool,
                 counters=None) -> None:
        super().__init__(node_id=node_id, dc_id=dc_id,
                         partition_index=partition_index, num_dcs=num_dcs,
                         num_partitions=num_partitions,
                         partitioner=partitioner, counters=counters)
        self.clock = LamportClock()
        self.store = MultiVersionStore()
        self.readers = ReaderRecords(gc_window_seconds=gc_window_seconds,
                                     one_id_per_client=one_id_per_client)
        self._gc_window = gc_window_seconds
        self._check_ids = itertools.count()
        self._pending_checks: dict[str, PendingCheck] = {}
        # Readers-check legs waiting for dependencies, indexed by the key of
        # each dependency they miss (a leg missing two keys is in two lists);
        # each list is in the order its legs began to wait.
        self._waiting_remote_checks: dict[str, list[WaitingRemoteCheck]] = {}
        self._waiting_local_checks: dict[str, list[WaitingLocalCheck]] = {}
        self._ordered_replication = False
        self._parked_finalizes: dict[tuple[str, int], list[str]] = {}
        # Trace ids of replicated versions whose readers check has not
        # finalised yet, keyed by (key, origin_dc, timestamp); only populated
        # while tracing (the finalize runs under a different message's trace).
        self._trace_by_version: dict[tuple[str, int, int], str] = {}
        self._handlers = {
            OneRoundReadRequest: self._handle_read,
            CcloPutRequest: self._handle_put,
            ReadersCheckRequest: self._handle_readers_check_request,
            ReadersCheckReply: self._handle_readers_check_reply,
            CcloReplicateUpdate: self._handle_replicated_update,
        }

    # ------------------------------------------------------------ factories
    @classmethod
    def from_config(cls, config, dc_id: int, partition_index: int, *,
                    partitioner, time_source=None, skew_offset_us: float = 0.0,
                    counters=None) -> "CcloKernel":
        """Build a kernel from a cluster configuration (duck-typed).

        ``time_source`` / ``skew_offset_us`` are accepted for interface
        uniformity with the vector kernels; CC-LO runs on a Lamport clock.
        """
        del time_source, skew_offset_us
        return cls(node_id=f"server-dc{dc_id}-p{partition_index}",
                   dc_id=dc_id, partition_index=partition_index,
                   num_dcs=config.num_dcs,
                   num_partitions=config.num_partitions,
                   partitioner=partitioner,
                   gc_window_seconds=milliseconds(config.cclo_gc_window_ms),
                   one_id_per_client=config.cclo_one_id_per_client,
                   counters=counters)

    # ---------------------------------------------------------------- timers
    def periodic_timers(self) -> tuple[TimerSpec, ...]:
        return (TimerSpec(tag="cclo-gc",
                          interval=max(self._gc_window / 2,
                                       milliseconds(50))),)

    def _handle_timer(self, tag: str, payload: Any) -> None:
        if tag == "cclo-gc":
            self.readers.collect_garbage(self.now)
        else:
            super()._handle_timer(tag, payload)

    # ------------------------------------------------------------------- ROT
    def _handle_read(self, sender: Addr, message: OneRoundReadRequest) -> None:
        results = []
        for key in message.keys:
            results.append(self._read_key(key, message.rot_id, message.client_id))
        self._send(sender, OneRoundReadReply(rot_id=message.rot_id,
                                             results=tuple(results)))

    def _read_key(self, key: str, rot_id: str, client_id: str) -> ReadResult:
        latest_visible = None

        def readable(version: Version) -> bool:
            # One newest-first scan finds both the latest visible version
            # (the first visible one it meets) and the one this ROT may read.
            nonlocal latest_visible
            if not version.visible:
                return False
            if latest_visible is None:
                latest_visible = version
            return rot_id not in version.old_readers

        chosen = self.store.latest(key, readable)
        logical_time = self.clock.tick()
        now = self.now
        if chosen is None:
            # Nothing readable (should only happen for never-written keys).
            return ReadResult(key=key, timestamp=None, origin_dc=self.dc_id,
                              value_size=0)
        if chosen is latest_visible:
            self.readers.record_current_reader(key, rot_id, client_id,
                                               logical_time, now)
        else:
            # The ROT was barred from the latest version: it must also be
            # barred from any future version depending on what it missed.
            self.readers.record_old_reader(key, rot_id, client_id,
                                           logical_time, now)
        return ReadResult(key=key, timestamp=chosen.timestamp,
                          origin_dc=chosen.origin_dc,
                          value_size=chosen.size_bytes)

    # ------------------------------------------------------------------- PUT
    def _handle_put(self, sender: Addr, message: CcloPutRequest) -> None:
        timestamp = self.clock.tick()
        # Interned: wire decoding hands every put of a hot key a fresh str;
        # sharing one object keeps store indexes and reader tables aliased.
        version = Version(key=intern_key(message.key), value=None,
                          timestamp=timestamp,
                          origin_dc=self.dc_id, size_bytes=message.value_size,
                          dependencies=message.dependencies, visible=False,
                          writer=message.client_id, sequence=message.sequence)
        self.store.install(version)
        self._start_readers_check(version, client=sender, replicate_after=True)

    def _start_readers_check(self, version: Version, client: Optional[Addr],
                             replicate_after: bool) -> None:
        check_id = f"{self.node_id}:chk{next(self._check_ids)}"
        pending = PendingCheck(version=version, client=client,
                               expected_replies=0,
                               replicate_after=replicate_after)
        groups: dict[int, list[tuple[str, int, int]]] = {}
        partition_of = self.partitioner.partition_of
        for dep in version.dependencies:
            groups.setdefault(partition_of(dep[0]), []).append(dep)
        local_deps = groups.pop(self.partition_index, [])
        pending.expected_replies = len(groups)
        pending.partitions_contacted = len(groups)
        self._pending_checks[check_id] = pending
        if local_deps:
            require_present = version.origin_dc != self.dc_id
            missing = {dep for dep in local_deps
                       if not self._dependency_present(dep)} \
                if require_present and self._ordered_replication else set()
            if missing:
                # Fault-hardened mode: the local-partition leg obeys the same
                # dependency wait the remote legs get via ``require_present``
                # — without it a replicated update whose dependency lives on
                # its own partition becomes visible before that dependency.
                pending.expected_replies += 1
                self._wait(self._waiting_local_checks, WaitingLocalCheck(
                    check_id=check_id,
                    keys=tuple(key for key, _, _ in local_deps),
                    missing=missing))
            else:
                pending.merge(self.readers.collect_for_response(
                    [key for key, _, _ in local_deps], self.now))
        if pending.expected_replies <= 0:
            self._finalize_check(check_id)
            return
        if not groups:
            return
        for partition_index, deps in groups.items():
            self.counters.readers_check_messages += 1
            self._send(self._dc_servers[partition_index],
                       ReadersCheckRequest(
                           check_id=check_id, dependencies=tuple(deps),
                           put_key=version.key, put_timestamp=version.timestamp,
                           require_present=version.origin_dc != self.dc_id))

    def _handle_readers_check_request(self, sender: Addr,
                                      message: ReadersCheckRequest) -> None:
        if message.require_present:
            missing = {dep for dep in message.dependencies
                       if not self._dependency_present(dep)}
            if missing:
                self._wait(self._waiting_remote_checks,
                           WaitingRemoteCheck(sender=sender, request=message,
                                              missing=missing))
                return
        self._reply_readers_check(sender, message)

    def _dependency_present(self, dep: tuple[str, int, int]) -> bool:
        key, timestamp, origin = dep
        if origin == self.dc_id:
            # Dependencies created in this DC are trivially present.
            return True
        return self.store.latest(
            key, lambda version: version.origin_dc == origin
            and version.timestamp >= timestamp and version.visible) is not None

    def _reply_readers_check(self, sender: Addr,
                             message: ReadersCheckRequest) -> None:
        collected = self.readers.collect_for_response(
            [key for key, _, _ in message.dependencies], self.now)
        self.counters.readers_check_messages += 1
        self._send(sender, ReadersCheckReply(check_id=message.check_id,
                                             old_readers=tuple(collected)))

    def _handle_readers_check_reply(self, sender: Addr,
                                    message: ReadersCheckReply) -> None:
        pending = self._pending_checks.get(message.check_id)
        if pending is None:
            raise ProtocolError(f"unknown readers check {message.check_id}")
        pending.merge(message.old_readers)
        pending.expected_replies -= 1
        if pending.expected_replies <= 0:
            self._finalize_check(message.check_id)

    def enable_ordered_replication(self) -> None:
        """Make replicated versions of a key become visible in order.

        Independent readers checks can complete out of order, letting a
        *newer* replicated version of a key become visible while an older one
        is still checking.  A remote dependency check satisfied by the newer
        version then exposes versions that causally depend on the
        still-invisible older one — a window that is sub-millisecond on a
        healthy cluster but grows to the whole backlog-drain period after a
        partition heals.  With ordering enabled, a replicated version whose
        same-key same-origin predecessor is still invisible parks its
        finalize until the predecessor completes.  The fault controller
        enables this (like the retention policies); the healthy path keeps
        the seed behaviour bit-for-bit.
        """
        self._ordered_replication = True

    def _finalize_check(self, check_id: str) -> None:
        if self._ordered_replication:
            pending = self._pending_checks[check_id]
            version = pending.version
            if version.origin_dc != self.dc_id \
                    and self._has_invisible_predecessor(version):
                slot = (version.key, version.origin_dc)
                parked = self._parked_finalizes.setdefault(slot, [])
                if check_id not in parked:
                    parked.append(check_id)
                return
        pending = self._pending_checks.pop(check_id)
        version = pending.version
        if version.old_readers:
            # A replicated version's own dict, built from its origin's ids.
            version.old_readers.update(pending.collected)  # type: ignore[attr-defined]
        elif pending.collected:
            version.old_readers = pending.collected
        now = self.now
        version.visible = True
        version.visible_at = now
        self.store.collect_superseded(version.key, now - self._gc_window)
        tracer = self.tracer
        if tracer is not None and version.origin_dc != self.dc_id:
            # The readers check completing is the remote-visibility point of
            # a replicated write (CC-LO has no GSS to wait for).
            trace = self._trace_by_version.pop(
                (version.key, version.origin_dc, version.timestamp), None)
            tracer.emit(self.node_id, VISIBLE, trace=trace, name=version.key,
                        dc=self.dc_id)
        self.readers.on_version_visible(version.key, self.now)
        # Old-reader inheritance: a ROT barred from this version must also be
        # barred from any future version that causally depends on it, so the
        # collected ids become old readers of this key as well.
        self.readers.record_old_readers(version.key, pending.collected,
                                        self.now)
        self.counters.record_readers_check(
            distinct_ids=len(pending.collected),
            cumulative_ids=pending.cumulative_ids,
            partitions_contacted=pending.partitions_contacted)
        self._notify_version_visible(version)
        if pending.client is not None:
            self._send(pending.client, CcloPutReply(key=version.key,
                                                    timestamp=version.timestamp))
        if pending.replicate_after:
            self._replicate(version)
        if self._ordered_replication:
            self._release_parked_finalizes(version.key, version.origin_dc)

    def _has_invisible_predecessor(self, version: Version) -> bool:
        """An older same-key same-origin version still awaiting its check."""
        return any(other.origin_dc == version.origin_dc
                   and other.timestamp < version.timestamp
                   and not other.visible
                   for other in self.store.versions(version.key))

    def _release_parked_finalizes(self, key: str, origin_dc: int) -> None:
        """Retry parked finalizes of ``key`` now a predecessor is visible."""
        parked = self._parked_finalizes.pop((key, origin_dc), None)
        if not parked:
            return
        # Oldest first, so a released version immediately unblocks the next.
        parked.sort(key=lambda check_id:
                    self._pending_checks[check_id].version.timestamp)
        for check_id in parked:
            self._finalize_check(check_id)

    # ------------------------------------------------------------ replication
    def _replicate(self, version: Version) -> None:
        dependencies = version.dependencies
        for replica in self._replicas:
            self.counters.replication_messages += 1
            self.counters.dependency_entries_sent += len(dependencies)
            self._send(replica, CcloReplicateUpdate(
                key=version.key, timestamp=version.timestamp,
                origin_dc=version.origin_dc, value_size=version.size_bytes,
                dependencies=dependencies, writer=version.writer,
                sequence=version.sequence,
                old_readers=tuple(version.old_readers.items())))

    def _handle_replicated_update(self, sender: Addr,
                                  message: CcloReplicateUpdate) -> None:
        self.clock.update(message.timestamp)
        version = Version(key=intern_key(message.key), value=None,
                          timestamp=message.timestamp,
                          origin_dc=message.origin_dc, size_bytes=message.value_size,
                          dependencies=message.dependencies, visible=False,
                          writer=message.writer, sequence=message.sequence)
        if message.old_readers:
            version.old_readers = dict(message.old_readers)
        self.store.install(version)
        tracer = self.tracer
        if tracer is not None:
            trace = self.current_trace
            tracer.emit(self.node_id, REPLICATE_APPLY, trace=trace,
                        name=version.key, dc=self.dc_id,
                        data=(("origin_dc", version.origin_dc),
                              ("timestamp", version.timestamp)))
            if trace is not None:
                self._trace_by_version[(version.key, version.origin_dc,
                                        version.timestamp)] = trace
        # The readers check is repeated in this DC, combined with the
        # dependency check (require_present=True on the outgoing requests).
        self._start_readers_check(version, client=None, replicate_after=False)

    @staticmethod
    def _wait(waits: dict[str, list], leg) -> None:
        """Index a waiting leg under the key of every dependency it misses."""
        for key in dict.fromkeys([dep[0] for dep in leg.missing]):
            waits.setdefault(key, []).append(leg)

    def _released_by(self, waits: dict[str, list], key: str) -> list:
        """Re-test the legs of ``waits`` that miss a version of ``key``; return
        (unindexed, in the order they began to wait) those that miss nothing
        now.  A dependency turns present only when a version of its key turns
        visible, so no other leg can have been released."""
        legs = waits.pop(key, None)
        if not legs:
            return []
        present = self._dependency_present
        still: list = []
        released: list = []
        for leg in legs:
            leg.missing = missing = {dep for dep in leg.missing
                                     if dep[0] != key or not present(dep)}
            if not missing:
                released.append(leg)
            elif any(dep[0] == key for dep in missing):
                still.append(leg)
        if still:
            waits[key] = still
        return released

    def _notify_version_visible(self, version: Version) -> None:
        """Wake the readers-check legs waiting on a version of this key:
        answer the released remote legs, then count in the released local
        ones, each in the order they began to wait."""
        key = version.key
        if self._waiting_remote_checks:
            for waiting in self._released_by(self._waiting_remote_checks, key):
                self._reply_readers_check(waiting.sender, waiting.request)
        if self._waiting_local_checks:
            for waiting in self._released_by(self._waiting_local_checks, key):
                pending = self._pending_checks.get(waiting.check_id)
                if pending is None:
                    continue
                pending.merge(self.readers.collect_for_response(
                    waiting.keys, self.now))
                pending.expected_replies -= 1
                if pending.expected_replies <= 0:
                    self._finalize_check(waiting.check_id)


# --------------------------------------------------------------------------
# Client kernel
# --------------------------------------------------------------------------


class CcloClientKernel(ClientKernel):
    """The client state machine of the latency-optimal protocol.

    ROTs are a single round (one read request per involved partition); PUTs
    carry the client's accumulated nearest dependencies — exactly what the
    writing partition needs to run the readers check.
    """

    def __init__(self, *, client_id: str, dc_id: int, partitioner) -> None:
        super().__init__(client_id=client_id, dc_id=dc_id,
                         partitioner=partitioner)
        self.dep_context = ClientDependencyContext()
        self._pending_rot: Optional[PendingRot] = None
        #: The dependency triples the PUT in flight was issued with.
        self._put_dependencies: tuple[tuple[str, int, int], ...] = ()
        self._handlers = {OneRoundReadReply: self._handle_read_reply,
                          CcloPutReply: self._handle_put_reply}

    @classmethod
    def from_config(cls, config, client_id: str, dc_id: int, *,
                    partitioner, rng=None) -> "CcloClientKernel":
        """Factory with the same signature as the vector client kernels."""
        del config, rng
        return cls(client_id=client_id, dc_id=dc_id, partitioner=partitioner)

    # ------------------------------------------------------------------- ROT
    def _issue_rot(self, operation) -> None:
        rot_id = self.next_rot_id()
        groups = self.partitioner.group_by_partition(operation.keys)
        self._pending_rot = PendingRot(rot_id=rot_id, keys=operation.keys,
                                       started_at=self.now,
                                       expected_replies=len(groups))
        for partition_index, keys in groups.items():
            self._send(self._servers[partition_index],
                       OneRoundReadRequest(rot_id=rot_id, keys=tuple(keys),
                                           client_id=self.client_id))

    def _handle_read_reply(self, message: OneRoundReadReply) -> None:
        pending = self._pending_rot
        if pending is None or pending.rot_id != message.rot_id:
            raise ProtocolError(
                f"{self.client_id} received a reply for unknown ROT "
                f"{message.rot_id}")
        pending.record_reply(message.results)
        if not pending.complete:
            return
        self._pending_rot = None
        self.dep_context.observe_reads(pending.results.values(),
                                       self.partitioner.partition_of)
        self._complete("rot", RotOutcome(rot_id=message.rot_id,
                                         results=pending.results))

    # ------------------------------------------------------------------- PUT
    def _issue_put(self, operation) -> None:
        key = operation.keys[0]
        self._put_dependencies = dependencies = self.checker_dependencies()
        request = CcloPutRequest(
            key=key, value_size=operation.value_size,
            dependencies=dependencies,
            dependency_partitions=self.dep_context.dependency_partitions(),
            client_id=self.client_id, sequence=self.sequence)
        self._send(self._servers[self.partitioner.partition_of(key)], request)

    def _handle_put_reply(self, message: CcloPutReply) -> None:
        # The checker records the PUT against the context it was issued
        # under, which is still the current one: a client has one operation
        # in flight, so nothing was observed since the PUT was sent.
        dependencies = self._put_dependencies
        partition = self.partitioner.partition_of(message.key)
        self.dep_context.observe_write(message.key, message.timestamp,
                                       partition, self.dc_id)
        self._complete("put", PutOutcome(key=message.key,
                                         timestamp=message.timestamp,
                                         origin_dc=self.dc_id,
                                         dependencies=dependencies))

    # ------------------------------------------------------------------ misc
    def checker_dependencies(self) -> tuple[tuple[str, int, int], ...]:
        return tuple([dep.as_triple() for dep in self.dep_context.dependencies()])


__all__ = [
    "CcloClientKernel",
    "CcloKernel",
    "PROTOCOL_NAME",
    "PendingCheck",
    "WaitingLocalCheck",
    "WaitingRemoteCheck",
]

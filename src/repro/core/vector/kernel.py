"""Sans-I/O kernels of the vector protocol family (Contrarian / Cure).

:class:`VectorServerKernel` and :class:`VectorClientKernel` hold the complete
protocol logic of Section 4 — PUT timestamping, snapshot-vector choice, GSS
stabilization, heartbeats, replication — as pure state machines emitting
:mod:`repro.core.common.kernel` effects.  :class:`ContrarianKernel` and
:class:`CureKernel` (and their client counterparts) pin down the two
published configurations: HLC + 1½ rounds versus physical clocks + 2 rounds.

Nothing here imports the simulator: time arrives through ``now`` arguments
and the injected :class:`~repro.core.vector.clockbox.ClockBox`; randomness
through the injected client RNG.  :mod:`repro.core.common.host` interprets
the effects; :mod:`repro.sim.drivers` puts that host on the discrete-event
simulator, :mod:`repro.runtime.nodes` on an asyncio loop.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence

from repro.causal.dependencies import ClientDependencyContext
from repro.causal.stabilization import GlobalStableSnapshot
from repro.causal.vectors import entrywise_max, with_entry, zero_vector
from repro.clocks.units import milliseconds
from repro.core.common.kernel import (
    Addr,
    ClientKernel,
    PutOutcome,
    RotOutcome,
    ServerKernel,
    TimerSpec,
)
from repro.core.common.messages import (
    PendingRot,
    ReadResult,
    RemoteHeartbeat,
    ReplicateUpdate,
    RotCoordinatorRequest,
    RotProxyRead,
    RotReadRequest,
    RotSnapshotReply,
    RotValueReply,
    StabilizationMessage,
    VectorPutReply,
    VectorPutRequest,
)
from repro.core.vector.clockbox import ClockBox
from repro.errors import ProtocolError
from repro.obs.events import GSS_ADVANCE, REPLICATE_APPLY, VISIBLE
from repro.storage.mvstore import MultiVersionStore
from repro.storage.version import Version
from repro.wire.intern import intern_key


class VectorServerKernel(ServerKernel):
    """The partition-server state machine of the Contrarian/Cure design.

    **Version GC.**  A ROT returns, per key, the newest version its snapshot
    admits, so that version must still be stored.  A partition's *floor* is
    the entry-wise minimum of the latest ``previous_gss`` of every DC peer
    (the peer's GSS at the broadcast before the one carrying it), its own GSS
    at its previous broadcast, and the snapshot of every read it holds in a
    ``rot-block`` timer; it is recomputed at each own stabilization
    broadcast.  After installing a version of a key, local or replicated,
    the partition drops the front of the key's chain while the next
    version's dependency vector is at or below the floor
    (:meth:`~repro.storage.mvstore.MultiVersionStore.collect_below_floor`),
    which changes no read whose snapshot dominates the floor; every one does:

    * *1 1/2 rounds.*  A coordinator sends its proxy reads before its next
      stabilization message on the same channel, and channels are FIFO per
      (sender, destination) in the simulated network, the run queue and a
      TCP link.  A proxy read still to arrive was thus sent after every
      broadcast of its coordinator the target has received, with a snapshot
      above the coordinator's GSS then, hence above the values those
      broadcasts carried: the GSS only moves forward.  A read the
      coordinator serves itself is above its own GSS.
    * *Two rounds* (Cure always; Contrarian with ``rot_rounds=2``).  The
      client carries the snapshot, so no FIFO order applies.  The
      one-broadcast lag of ``previous_gss`` covers a read that reaches its
      partition within one stabilization interval (5 ms) of its snapshot
      being chosen, about two intra-DC hops.  That is an assumption, as
      CC-LO's 500 ms reader window is one; a read that breaks it finds no
      version of a stored key, which :meth:`_serve_read` counts in
      ``snapshot_misses``, never a silent bottom value.
    * *``rot-block``.*  A held read arrived above the floor and keeps its
      snapshot in every floor computed until it is served.

    A staler floor is lower, hence still safe; chains grow while the floor
    stalls (a partitioned DC freezes the GSS), as in a real store.
    """

    #: Default clock mode; subclasses pin the published configurations.
    clock_mode = "hlc"
    protocol_name = "vector"

    def __init__(self, *, node_id: str, dc_id: int, partition_index: int,
                 num_dcs: int, num_partitions: int, partitioner,
                 clock: ClockBox,
                 stabilization_interval: float,
                 heartbeat_interval: float,
                 counters=None) -> None:
        super().__init__(node_id=node_id, dc_id=dc_id,
                         partition_index=partition_index, num_dcs=num_dcs,
                         num_partitions=num_partitions,
                         partitioner=partitioner, counters=counters)
        self.clock = clock
        self.store = MultiVersionStore()
        self.version_vector: list[int] = list(zero_vector(num_dcs))
        self.gss_state = GlobalStableSnapshot(num_dcs, num_partitions,
                                              partition_index)
        # Version GC (class docstring): the floor as of the last own
        # broadcast; the snapshots of reads held in ``rot-block``, by ROT id.
        self._gc_floor = zero_vector(num_dcs)
        self._held_snapshots: dict[str, tuple[int, ...]] = {}
        self._stabilization_interval = stabilization_interval
        self._heartbeat_interval = heartbeat_interval
        # Traced replicated versions not yet covered by the GSS; entries are
        # (trace, key, dependency_vector).  Only populated while tracing.
        self._trace_pending: list[tuple[str, str, tuple[int, ...]]] = []
        self._handlers = {
            VectorPutRequest: self._handle_put,
            RotCoordinatorRequest: self._handle_coordinator_request,
            RotProxyRead: self._handle_read,
            RotReadRequest: self._handle_read,
            StabilizationMessage: self._handle_stabilization,
            RemoteHeartbeat: self._handle_heartbeat,
            ReplicateUpdate: self._handle_replicated_update,
        }

    # ------------------------------------------------------------ factories
    @classmethod
    def resolved_clock_mode(cls, config) -> str:
        """The clock mode this kernel runs with under ``config``."""
        return cls.clock_mode

    @classmethod
    def from_config(cls, config, dc_id: int, partition_index: int, *,
                    partitioner, time_source, skew_offset_us: float = 0.0,
                    counters=None) -> "VectorServerKernel":
        """Build a kernel from a :class:`~repro.cluster.config.ClusterConfig`.

        ``config`` is duck-typed so this module never imports the (simulator
        -dependent) configuration class; drivers of both backends pass the
        real one.
        """
        node_id = f"server-dc{dc_id}-p{partition_index}"
        clock = ClockBox(cls.resolved_clock_mode(config), time_source,
                         offset_us=skew_offset_us)
        return cls(node_id=node_id, dc_id=dc_id,
                   partition_index=partition_index,
                   num_dcs=config.num_dcs,
                   num_partitions=config.num_partitions,
                   partitioner=partitioner, clock=clock,
                   stabilization_interval=milliseconds(
                       config.stabilization_interval_ms),
                   heartbeat_interval=milliseconds(
                       config.heartbeat_interval_ms),
                   counters=counters)

    # ---------------------------------------------------------------- timers
    def periodic_timers(self) -> tuple[TimerSpec, ...]:
        interval = self._stabilization_interval
        specs = [TimerSpec(
            tag="stabilization", interval=interval,
            start_delay=interval * (0.5 + 0.5 * self.partition_index
                                    / max(1, self.num_partitions)))]
        if self.num_dcs > 1:
            specs.append(TimerSpec(tag="remote-heartbeat",
                                   interval=self._heartbeat_interval))
        return tuple(specs)

    def _handle_timer(self, tag: str, payload: Any) -> None:
        if tag == "stabilization":
            self._broadcast_version_vector()
        elif tag == "remote-heartbeat":
            self._send_remote_heartbeats()
        elif tag == "put-wait":
            sender, message = payload
            self._finish_put(sender, message)
        elif tag == "rot-block":
            client, rot_id, keys, snapshot = payload
            del self._held_snapshots[rot_id]
            self._serve_read(client, rot_id, keys, snapshot)
        else:
            super()._handle_timer(tag, payload)

    def _broadcast_version_vector(self) -> None:
        """Advertise the local version vector, and the GSS as of the previous
        broadcast, to the other local partitions; recompute the GC floor."""
        local = self.dc_id
        self.version_vector[local] = max(self.version_vector[local],
                                         self.clock.read())
        vv = tuple(self.version_vector)
        tracer = self.tracer
        before = self.gss_state.gss if tracer is not None else None
        previous_gss = self.gss_state.update_local_vv(vv)
        if tracer is not None and self.gss_state.gss != before:
            self._trace_gss_advance(tracer)
        self._gc_floor = self.gss_state.gc_floor(self._held_snapshots.values())
        message = StabilizationMessage(partition_index=self.partition_index,
                                       version_vector=vv,
                                       previous_gss=previous_gss)
        for peer in self._peers:
            self.counters.stabilization_messages += 1
            self._send(peer, message)

    def _send_remote_heartbeats(self) -> None:
        """Advertise the local clock to remote replicas of this partition."""
        message = RemoteHeartbeat(origin_dc=self.dc_id,
                                  timestamp=self.clock.read())
        for replica in self._replicas:
            self.counters.stabilization_messages += 1
            self._send(replica, message)

    # --------------------------------------------------------------- handlers
    def _handle_stabilization(self, sender: Addr,
                              message: StabilizationMessage) -> None:
        tracer = self.tracer
        before = self.gss_state.gss if tracer is not None else None
        self.gss_state.observe_remote_vv(message.partition_index,
                                         message.version_vector,
                                         message.previous_gss)
        if tracer is not None and self.gss_state.gss != before:
            self._trace_gss_advance(tracer)

    def _handle_heartbeat(self, sender: Addr, message: RemoteHeartbeat) -> None:
        self._observe_remote_timestamp(message.origin_dc, message.timestamp)

    # -------------------------------------------------------------------- PUT
    def _handle_put(self, sender: Addr, message: VectorPutRequest) -> None:
        floor = max(message.client_vector) if message.client_vector else 0
        decision = self.clock.timestamp_after(floor)
        if decision.wait_seconds > 0:
            # Physical clocks (Cure) may have to wait before they can assign a
            # timestamp larger than the client's dependencies.
            self.counters.total_block_time += decision.wait_seconds
            self._set_timer(decision.wait_seconds, "put-wait",
                            payload=(sender, message))
            return
        self._finish_put(sender, message, timestamp=decision.timestamp)

    def _finish_put(self, sender: Addr, message: VectorPutRequest,
                    timestamp: Optional[int] = None) -> None:
        if timestamp is None:
            floor = max(message.client_vector) if message.client_vector else 0
            timestamp = self.clock.timestamp_after(floor).timestamp
        local = self.dc_id
        # The local entry is the version's own timestamp, whatever the
        # client's vector and the GSS hold there.
        dependency_vector = with_entry(
            entrywise_max(message.client_vector, self.gss_state.gss),
            local, timestamp)
        # Interning collapses the per-message key copies that arrive off the
        # wire (every put of a hot key decodes a fresh str) into one shared
        # object, so store indexes and dependency lists alias rather than
        # duplicate.
        version = Version(key=intern_key(message.key), value=None,
                          timestamp=timestamp,
                          origin_dc=local, size_bytes=message.value_size,
                          dependency_vector=dependency_vector,
                          dependencies=message.dependencies,
                          writer=message.client_id, sequence=message.sequence)
        self.store.install(version)
        self.store.collect_below_floor(version.key, self._gc_floor)
        self.version_vector[local] = max(self.version_vector[local], timestamp)
        self._send(sender, VectorPutReply(key=message.key, timestamp=timestamp,
                                          gss=self.gss_state.gss))
        self._replicate(version)

    def _replicate(self, version: Version) -> None:
        for replica in self._replicas:
            self.counters.replication_messages += 1
            self.counters.dependency_entries_sent += len(version.dependencies)
            self._send(replica, ReplicateUpdate(
                key=version.key, timestamp=version.timestamp,
                origin_dc=version.origin_dc, value_size=version.size_bytes,
                dependency_vector=version.dependency_vector,
                dependencies=version.dependencies,
                writer=version.writer, sequence=version.sequence))

    def _handle_replicated_update(self, sender: Addr,
                                  message: ReplicateUpdate) -> None:
        self.clock.observe(message.timestamp)
        self._observe_remote_timestamp(message.origin_dc, message.timestamp)
        version = Version(key=intern_key(message.key), value=None,
                          timestamp=message.timestamp,
                          origin_dc=message.origin_dc, size_bytes=message.value_size,
                          dependency_vector=message.dependency_vector,
                          dependencies=message.dependencies,
                          writer=message.writer, sequence=message.sequence)
        self.store.install(version)
        self.store.collect_below_floor(version.key, self._gc_floor)
        tracer = self.tracer
        if tracer is not None:
            self._trace_replicate_apply(tracer, version)

    # -------------------------------------------------------- trace helpers
    def _trace_replicate_apply(self, tracer, version: Version) -> None:
        """Record a replicated install and watch the version until the GSS
        covers its dependency vector (its remote-visibility point)."""
        trace = self.current_trace
        tracer.emit(self.node_id, REPLICATE_APPLY, trace=trace,
                    name=version.key, dc=self.dc_id,
                    data=(("origin_dc", version.origin_dc),
                          ("timestamp", version.timestamp)))
        if trace is None:
            return
        if self._gss_covers(version.dependency_vector, self.gss_state.gss):
            tracer.emit(self.node_id, VISIBLE, trace=trace,
                        name=version.key, dc=self.dc_id)
        else:
            self._trace_pending.append(
                (trace, version.key, version.dependency_vector))

    def _gss_covers(self, dependency_vector: tuple[int, ...],
                    gss: tuple[int, ...]) -> bool:
        """Whether a replicated version is readable here: every *remote*
        dependency entry is stable (the local entry is governed by the local
        clock, which a fresh ROT snapshot always dominates)."""
        local = self.dc_id
        return all(dependency_vector[dc] <= gss[dc]
                   for dc in range(self.num_dcs) if dc != local)

    def _trace_gss_advance(self, tracer) -> None:
        gss = self.gss_state.gss
        tracer.emit(self.node_id, GSS_ADVANCE, name="gss", dc=self.dc_id,
                    data=(("gss", repr(gss)),))
        if not self._trace_pending:
            return
        still_pending = []
        for trace, key, dependency_vector in self._trace_pending:
            if self._gss_covers(dependency_vector, gss):
                tracer.emit(self.node_id, VISIBLE, trace=trace, name=key,
                            dc=self.dc_id)
            else:
                still_pending.append((trace, key, dependency_vector))
        self._trace_pending = still_pending

    def _observe_remote_timestamp(self, origin_dc: int, timestamp: int) -> None:
        if origin_dc == self.dc_id:
            return
        self.version_vector[origin_dc] = max(self.version_vector[origin_dc],
                                             timestamp)

    # -------------------------------------------------------------------- ROT
    def _handle_coordinator_request(self, sender: Addr,
                                    message: RotCoordinatorRequest) -> None:
        # The freshest stable snapshot either side has seen, its local entry
        # raised to the client's own writes and the coordinator's clock.
        snapshot = with_entry(
            entrywise_max(self.gss_state.gss, message.client_gss), self.dc_id,
            max(self.clock.read(), message.client_local_ts))
        if message.two_round:
            self._send(sender, RotSnapshotReply(rot_id=message.rot_id,
                                                snapshot=snapshot))
            return
        # 1 1/2-round mode: fan the reads out to the involved partitions, which
        # reply to the client directly (three communication steps in total).
        groups = self.partitioner.group_by_partition(message.keys)
        for partition_index, keys in groups.items():
            if partition_index == self.partition_index:
                continue
            self._send(self._dc_servers[partition_index],
                       RotProxyRead(rot_id=message.rot_id,
                                    keys=tuple(keys), snapshot=snapshot,
                                    client_id=message.client_id))
        own_keys = groups.get(self.partition_index)
        if own_keys:
            self._serve_read(self._client_addrs[message.client_id],
                             message.rot_id, own_keys, snapshot)

    def _handle_read(self, sender: Addr,
                     message: "RotProxyRead | RotReadRequest") -> None:
        client = self._client_addrs[message.client_id]
        wait = self.clock.catch_up(message.snapshot[self.dc_id])
        if wait > 0:
            # Physical clocks (Cure) block until the local clock reaches the
            # snapshot timestamp; this is the latency penalty the paper
            # attributes to clock skew.
            self.counters.blocked_reads += 1
            self.counters.total_block_time += wait
            self._held_snapshots[message.rot_id] = message.snapshot
            self._set_timer(wait, "rot-block",
                            payload=(client, message.rot_id, message.keys,
                                     message.snapshot))
            return
        self._serve_read(client, message.rot_id, message.keys, message.snapshot)

    def _serve_read(self, client: Addr, rot_id: str, keys: Sequence[str],
                    snapshot: tuple[int, ...]) -> None:
        width = len(snapshot)

        def in_snapshot(version: Version) -> bool:
            # Everything a candidate version is tested for, in the one frame
            # the store's scan calls per version: ``vector_leq`` spelled out.
            vector = version.dependency_vector
            if vector is None or not version.visible:
                return False
            if len(vector) != width:
                raise ProtocolError(f"vector length mismatch: {len(vector)} vs "
                                    f"{width} ({vector!r} vs {snapshot!r})")
            for entry, bound in zip(vector, snapshot):
                if entry > bound:
                    return False
            return True

        results = []
        for key in keys:
            version = self.store.latest(key, in_snapshot)
            if version is None:
                # A stored key: version GC took what the snapshot needed.
                if self.store.contains(key):
                    self.counters.snapshot_misses += 1
                results.append(ReadResult(key, None, self.dc_id, 0))
            else:
                results.append(ReadResult(key, version.timestamp,
                                          version.origin_dc,
                                          version.size_bytes))
        self._send(client, RotValueReply(rot_id=rot_id, results=tuple(results),
                                         snapshot=snapshot,
                                         gss=self.gss_state.gss))


class ContrarianKernel(VectorServerKernel):
    """Contrarian: HLC (by default; the clock ablation may override)."""

    clock_mode = "hlc"
    protocol_name = "contrarian"

    @classmethod
    def resolved_clock_mode(cls, config) -> str:
        return config.clock_mode


class CureKernel(VectorServerKernel):
    """Cure: physical clocks, hence blocking ROTs."""

    clock_mode = "physical"
    protocol_name = "cure"


# --------------------------------------------------------------------------
# Client kernel
# --------------------------------------------------------------------------


class VectorClientKernel(ClientKernel):
    """The client state machine of the Contrarian/Cure design.

    Keeps the two pieces of causal context of Section 4 — the highest
    local-DC timestamp observed and the freshest GSS observed — plus the
    explicit nearest-dependency context recorded for the checker.
    """

    def __init__(self, *, client_id: str, dc_id: int, num_dcs: int,
                 partitioner, rng: random.Random, two_round: bool) -> None:
        super().__init__(client_id=client_id, dc_id=dc_id,
                         partitioner=partitioner)
        self.rng = rng
        self.two_round = two_round
        self.num_dcs = num_dcs
        self.local_ts_seen = 0
        self.gss_seen: tuple[int, ...] = zero_vector(num_dcs)
        self.dep_context = ClientDependencyContext()
        self._pending_rot: Optional[PendingRot] = None
        # The in-flight ROT's value replies, folded in when it completes.
        self._rot_replies: list[RotValueReply] = []
        self._pending_put_gss: Optional[tuple[int, ...]] = None
        self._handlers = {
            VectorPutReply: self._handle_put_reply,
            RotSnapshotReply: self._handle_snapshot_reply,
            RotValueReply: self._handle_value_reply,
        }

    @classmethod
    def resolved_two_round(cls, config) -> bool:
        """Whether this client runs 2-round ROTs under ``config``."""
        return config.rot_rounds == 2.0

    @classmethod
    def from_config(cls, config, client_id: str, dc_id: int, *,
                    partitioner, rng: random.Random) -> "VectorClientKernel":
        return cls(client_id=client_id, dc_id=dc_id, num_dcs=config.num_dcs,
                   partitioner=partitioner, rng=rng,
                   two_round=cls.resolved_two_round(config))

    # ------------------------------------------------------------------- PUT
    def _issue_put(self, operation) -> None:
        key = operation.keys[0]
        request = VectorPutRequest(
            key=key, value_size=operation.value_size,
            client_vector=with_entry(self.gss_seen, self.dc_id,
                                     self.local_ts_seen),
            client_id=self.client_id, sequence=self.sequence,
            dependencies=tuple(dep.as_pair()
                               for dep in self.dep_context.dependencies()))
        self._send(self._servers[self.partitioner.partition_of(key)], request)

    def _handle_put_reply(self, message: VectorPutReply) -> None:
        self._pending_put_gss = message.gss
        # Snapshot the causal context *before* the PUT subsumes it — the
        # checker records the PUT against the context it was issued under.
        dependencies = self.checker_dependencies()
        self._after_put(message.key, message.timestamp)
        self._complete("put", PutOutcome(key=message.key,
                                         timestamp=message.timestamp,
                                         origin_dc=self.dc_id,
                                         dependencies=dependencies))

    def _after_put(self, key: str, timestamp: int) -> None:
        self.local_ts_seen = max(self.local_ts_seen, timestamp)
        if self._pending_put_gss is not None:
            self.gss_seen = entrywise_max(self.gss_seen, self._pending_put_gss)
            self._pending_put_gss = None
        partition = self.partitioner.partition_of(key)
        self.dep_context.observe_write(key, timestamp, partition, self.dc_id)

    # ------------------------------------------------------------------- ROT
    def _issue_rot(self, operation) -> None:
        rot_id = self.next_rot_id()
        groups = self.partitioner.group_by_partition(operation.keys)
        involved = sorted(groups)
        coordinator_index = self.rng.choice(involved)
        self._pending_rot = PendingRot(rot_id=rot_id, keys=operation.keys,
                                       started_at=self.now,
                                       expected_replies=len(involved))
        self._send(self._servers[coordinator_index],
                   RotCoordinatorRequest(
                       rot_id=rot_id, keys=operation.keys,
                       client_local_ts=self.local_ts_seen,
                       client_gss=self.gss_seen,
                       client_id=self.client_id, two_round=self.two_round))

    def _handle_snapshot_reply(self, message: RotSnapshotReply) -> None:
        pending = self._expect_pending(message.rot_id)
        pending.snapshot = message.snapshot
        groups = self.partitioner.group_by_partition(pending.keys)
        for partition_index, keys in groups.items():
            self._send(self._servers[partition_index],
                       RotReadRequest(rot_id=message.rot_id,
                                      keys=tuple(keys),
                                      snapshot=message.snapshot,
                                      client_id=self.client_id))

    def _handle_value_reply(self, message: RotValueReply) -> None:
        pending = self._expect_pending(message.rot_id)
        pending.record_reply(message.results)
        self._rot_replies.append(message)
        if not pending.complete:
            return
        self._pending_rot = None
        self._observe_snapshots(self._rot_replies)
        self._rot_replies.clear()
        self.dep_context.observe_reads(pending.results.values(),
                                       self.partitioner.partition_of)
        self._complete("rot", RotOutcome(rot_id=message.rot_id,
                                         results=pending.results))

    def _observe_snapshots(self, replies: list[RotValueReply]) -> None:
        """Fold a completed ROT's snapshots and GSSes into the causal context.

        The snapshot vector dominates the dependency vector of every version
        a reply returned, so folding it in guarantees that the client's
        subsequent PUTs causally cover what it just read (including the
        remote dependencies of those versions).  Its local entry is a clock
        reading, not a stable time: it raises ``local_ts_seen``, and the
        GSS's local column is the GSSes' alone.

        This runs once, when the last reply arrives, with one column-wise
        ``max`` over every vector of the ROT, instead of two
        ``entrywise_max`` and a ``with_entry`` per reply: ``max`` is
        associative and commutative, and between the replies of one ROT the
        client neither reads its context nor sends anything, so nothing can
        observe it half-folded.
        """
        local = self.dc_id
        stable = self.gss_seen
        width = len(stable)
        local_stable = stable[local]
        local_ts = self.local_ts_seen
        rows = [stable]
        for reply in replies:
            snapshot, gss = reply.snapshot, reply.gss
            if len(snapshot) != width or len(gss) != width:
                raise ProtocolError(
                    f"{self.client_id}: a reply's vectors {snapshot!r} and "
                    f"{gss!r} do not have {width} entries")
            if snapshot[local] > local_ts:
                local_ts = snapshot[local]
            if gss[local] > local_stable:
                local_stable = gss[local]
            rows.append(snapshot)
            rows.append(gss)
        merged = list(map(max, *rows))
        merged[local] = local_stable
        self.gss_seen = tuple(merged)
        self.local_ts_seen = local_ts

    def _expect_pending(self, rot_id: str) -> PendingRot:
        pending = self._pending_rot
        if pending is None or pending.rot_id != rot_id:
            raise ProtocolError(
                f"{self.client_id} received a reply for unknown ROT {rot_id}")
        return pending

    # ------------------------------------------------------------------ misc
    def checker_dependencies(self) -> tuple[tuple[str, int, int], ...]:
        return tuple(dep.as_triple() for dep in self.dep_context.dependencies())


class ContrarianClientKernel(VectorClientKernel):
    """Contrarian client: 1½-round ROTs by default, 2 rounds if configured."""


class CureClientKernel(VectorClientKernel):
    """Cure client: always two rounds of client-server communication."""

    @classmethod
    def resolved_two_round(cls, config) -> bool:
        return True


__all__ = [
    "ContrarianClientKernel",
    "ContrarianKernel",
    "CureClientKernel",
    "CureKernel",
    "VectorClientKernel",
    "VectorServerKernel",
]

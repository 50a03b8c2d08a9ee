"""Isolated tests of the sans-I/O protocol kernels.

Each kernel is driven with hand-crafted message sequences — no simulator, no
event loop, no cluster — and the emitted effects are asserted directly.
This is the payoff of the kernel/driver split: the protocol logic (including
the CC-LO readers check and the HLC snapshot-advance edge cases) is testable
as a pure state machine.
"""

import sys

import pytest

from repro.clocks.timesource import FixedClock
from repro.cluster.partitioning import HashPartitioner
from repro.core.cclo.kernel import CcloClientKernel, CcloKernel
from repro.core.common.kernel import (
    ClientAddr,
    Complete,
    Send,
    ServerAddr,
    SetTimer,
)
from repro.core.common.messages import (
    CcloPutReply,
    CcloPutRequest,
    CcloReplicateUpdate,
    OneRoundReadReply,
    OneRoundReadRequest,
    ReadResult,
    ReadersCheckReply,
    ReadersCheckRequest,
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
from repro.core.vector.kernel import (
    ContrarianKernel,
    CureKernel,
    VectorClientKernel,
    VectorServerKernel,
)
from repro.errors import ProtocolError
from repro.storage.mvstore import MultiVersionStore
from repro.storage.version import Version

import random


class TestSansIoImport:
    def test_kernel_modules_do_not_import_the_simulator(self):
        """Acceptance criterion: kernels import with no repro.sim dependency."""
        saved = {name: module for name, module in sys.modules.items()
                 if name.startswith("repro")}
        for name in saved:
            del sys.modules[name]
        try:
            import repro.core.vector.kernel  # noqa: F401
            import repro.core.cclo.kernel  # noqa: F401
            import repro.core.common.kernel  # noqa: F401
            import repro.core.common.host  # noqa: F401
            import repro.core.registry  # noqa: F401
            sim_modules = [name for name in sys.modules
                           if name.startswith("repro.sim")]
            assert sim_modules == []
        finally:
            # Restore the originally imported modules so every other test
            # keeps its class identities (isinstance checks!).
            for name in [n for n in sys.modules if n.startswith("repro")]:
                del sys.modules[name]
            sys.modules.update(saved)

    def test_kernel_host_needs_no_event_loop(self):
        """The host is backend-free: importing it (and the registry that
        builds kernels) loads neither the simulator nor asyncio.  A fresh
        interpreter, because this process has long since imported both."""
        import os
        import subprocess

        import repro
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        script = ("import sys, repro.core.common.host, repro.core.registry\n"
                  "loaded = [name for name in sys.modules if name == 'asyncio'"
                  " or name.startswith('repro.sim')]\n"
                  "assert not loaded, loaded")
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={**os.environ, "PYTHONPATH": source_root},
                       timeout=60)


def vector_kernel(mode="hlc", num_dcs=2, clock=None, partitions=4):
    time_source = clock or FixedClock(0.0)
    return VectorServerKernel(
        node_id="server-dc0-p0", dc_id=0, partition_index=0,
        num_dcs=num_dcs, num_partitions=partitions,
        partitioner=HashPartitioner(partitions),
        clock=ClockBox(mode, time_source, offset_us=0.0),
        stabilization_interval=0.005, heartbeat_interval=0.010)


def key_on(partition, index=0):
    return HashPartitioner.structured_key(partition, index)


class TestVectorServerKernel:
    def test_put_emits_reply_then_replication(self):
        kernel = vector_kernel()
        request = VectorPutRequest(key=key_on(0), value_size=8,
                                   client_vector=(0, 0), client_id="c", sequence=1)
        effects = kernel.on_message(ClientAddr("c"), request, now=0.0)
        assert [type(e) for e in effects] == [Send, Send]
        reply, replicate = effects
        assert reply.dest == ClientAddr("c")
        assert isinstance(reply.message, VectorPutReply)
        assert replicate.dest == ServerAddr(1, 0)
        assert isinstance(replicate.message, ReplicateUpdate)
        installed = kernel.store.latest_visible(key_on(0))
        assert installed.timestamp == reply.message.timestamp
        assert installed.dependency_vector[0] == installed.timestamp

    def test_snapshot_local_entry_honours_client_timestamp(self):
        """HLC snapshot-advance edge: a client ahead of the coordinator's
        clock pushes the snapshot's local entry to its own timestamp."""
        kernel = vector_kernel()
        ahead = 10_000_000
        request = RotCoordinatorRequest(rot_id="c#1", keys=(key_on(0),),
                                        client_local_ts=ahead,
                                        client_gss=(0, 0), client_id="c",
                                        two_round=False)
        effects = kernel.on_message(ClientAddr("c"), request, now=0.0)
        (reply,) = effects
        assert isinstance(reply.message, RotValueReply)
        assert reply.message.snapshot[0] == ahead

    def test_hlc_read_at_future_snapshot_never_blocks_and_advances_clock(self):
        """HLC snapshot-advance edge: serving a snapshot ahead of the local
        HLC must not block, and must move the clock so later PUTs order
        after the snapshot."""
        kernel = vector_kernel()
        future_ts = 5_000_000
        read = RotProxyRead(rot_id="c#1", keys=(key_on(0),),
                            snapshot=(future_ts, 0), client_id="c")
        effects = kernel.on_message(ServerAddr(0, 1), read, now=0.0)
        assert [type(e) for e in effects] == [Send]  # no SetTimer: nonblocking
        assert kernel.counters.blocked_reads == 0
        assert kernel.clock.read() >= future_ts
        put = VectorPutRequest(key=key_on(0), value_size=8,
                               client_vector=(0, 0), client_id="c", sequence=2)
        (reply, _replicate) = kernel.on_message(ClientAddr("c"), put, now=0.0)
        assert reply.message.timestamp > future_ts

    def test_physical_read_at_future_snapshot_emits_blocking_timer(self):
        clock = FixedClock(0.0)
        kernel = vector_kernel(mode="physical", clock=clock)
        read = RotProxyRead(rot_id="c#1", keys=(key_on(0),),
                            snapshot=(5_000, 0), client_id="c")
        effects = kernel.on_message(ServerAddr(0, 1), read, now=0.0)
        (timer,) = effects
        assert isinstance(timer, SetTimer) and timer.tag == "rot-block"
        assert timer.delay == pytest.approx(0.005)
        assert kernel.counters.blocked_reads == 1
        # Once the clock has caught up, firing the timer serves the read.
        clock.advance(0.005)
        served = kernel.on_timer(timer.tag, timer.payload, now=0.005)
        assert [type(e) for e in served] == [Send]
        assert served[0].dest == ClientAddr("c")

    def test_stabilization_timer_broadcasts_to_local_peers(self):
        kernel = vector_kernel(num_dcs=1, partitions=3)
        tags = [spec.tag for spec in kernel.periodic_timers()]
        assert tags == ["stabilization"]  # no heartbeats with a single DC
        effects = kernel.on_timer("stabilization", None, now=0.0)
        assert [e.dest for e in effects] == [ServerAddr(0, 1), ServerAddr(0, 2)]

    def test_unknown_message_rejected(self):
        kernel = vector_kernel()
        with pytest.raises(ProtocolError):
            kernel.on_message(ClientAddr("c"), object(), now=0.0)

    def test_unknown_timer_rejected(self):
        kernel = vector_kernel()
        with pytest.raises(ProtocolError):
            kernel.on_timer("sundial", None, now=0.0)


def cclo_kernel(num_dcs=1, partitions=4):
    return CcloKernel(node_id="server-dc0-p0", dc_id=0, partition_index=0,
                      num_dcs=num_dcs, num_partitions=partitions,
                      partitioner=HashPartitioner(partitions),
                      gc_window_seconds=0.5, one_id_per_client=True)


def visible_version(key, timestamp):
    return Version(key=key, value=None, timestamp=timestamp, origin_dc=0,
                   size_bytes=8, visible=True)


class TestCcloKernel:
    def test_readers_check_collects_old_readers_across_partitions(self):
        """The full readers-check exchange, driven message by message."""
        kernel = cclo_kernel(num_dcs=2)
        local_key, remote_key = key_on(0), key_on(1)
        kernel.store.install(visible_version(local_key, 1))
        kernel.store.install(visible_version(remote_key, 1))

        # A ROT reads the local key: it becomes that key's current reader.
        read = OneRoundReadRequest(rot_id="c1#1", keys=(local_key,),
                                   client_id="c1")
        (reply,) = kernel.on_message(ClientAddr("c1"), read, now=0.0)
        assert reply.message.results[0].timestamp == 1
        assert kernel.readers.current_reader_count(local_key) == 1

        # A PUT depending on both keys: the remote dependency's partition
        # must be asked for old readers before the version becomes visible.
        put = CcloPutRequest(key=local_key, value_size=8,
                             dependencies=((local_key, 1, 0), (remote_key, 1, 0)),
                             dependency_partitions=(0, 1),
                             client_id="c2", sequence=1)
        effects = kernel.on_message(ClientAddr("c2"), put, now=0.1)
        (check,) = effects
        assert check.dest == ServerAddr(0, 1)
        assert isinstance(check.message, ReadersCheckRequest)
        assert not kernel.store.latest(local_key,
                                       lambda v: v.timestamp > 1).visible

        # The dependency partition answers with an old reader; the check
        # finalizes: version visible, client acked, replica updated, and the
        # old reader inherited onto the written key.
        answer = ReadersCheckReply(check_id=check.message.check_id,
                                   old_readers=(("c9#7", 42),))
        effects = kernel.on_message(ServerAddr(0, 1), answer, now=0.2)
        dests = [e.dest for e in effects]
        assert ClientAddr("c2") in dests and ServerAddr(1, 0) in dests
        assert any(isinstance(e.message, CcloPutReply) for e in effects)
        new_version = kernel.store.latest_visible(local_key)
        assert new_version.timestamp > 1 and new_version.visible
        assert "c9#7" in new_version.old_readers
        assert kernel.counters.readers_checks == 1
        # Old-reader inheritance: c9#7 is now an old reader of the key too.
        assert ("c9#7", 42) in kernel.readers.old_readers_of(local_key, now=0.3)

    def test_barred_reader_falls_back_to_older_version(self):
        kernel = cclo_kernel()
        key = key_on(0)
        kernel.store.install(visible_version(key, 1))
        newer = Version(key=key, value=None, timestamp=2, origin_dc=0,
                        size_bytes=8, visible=True,
                        old_readers={"c1#1": 10})
        kernel.store.install(newer)
        read = OneRoundReadRequest(rot_id="c1#1", keys=(key,), client_id="c1")
        (reply,) = kernel.on_message(ClientAddr("c1"), read, now=0.0)
        # The barred ROT gets the *older* version (latency-optimal: it never
        # blocks or retries) and is recorded as an old reader.
        assert reply.message.results[0].timestamp == 1
        assert ("c1#1" in dict(kernel.readers.old_readers_of(key, now=0.1)))

    def test_local_only_dependencies_complete_synchronously(self):
        kernel = cclo_kernel(num_dcs=1)
        key = key_on(0)
        kernel.store.install(visible_version(key, 1))
        put = CcloPutRequest(key=key, value_size=8,
                             dependencies=((key, 1, 0),),
                             dependency_partitions=(0,),
                             client_id="c", sequence=1)
        effects = kernel.on_message(ClientAddr("c"), put, now=0.0)
        # Single DC, dependency on the writing partition itself: the check
        # needs no network round and the PUT acks immediately.
        assert [type(e) for e in effects] == [Send]
        assert isinstance(effects[0].message, CcloPutReply)

    def test_gc_timer_purges_expired_reader_records(self):
        kernel = cclo_kernel()
        key = key_on(0)
        kernel.readers.record_old_reader(key, "c1#1", "c1", 5, now=0.0)
        assert kernel.periodic_timers()[0].tag == "cclo-gc"
        kernel.on_timer("cclo-gc", None, now=10.0)
        assert kernel.readers.total_tracked_entries() == 0

    def test_unknown_message_rejected(self):
        with pytest.raises(ProtocolError):
            cclo_kernel().on_message(ClientAddr("c"), object(), now=0.0)


def server_kernel(protocol, clock=None):
    """Partition 0 of DC 0 in a 2-DC, 4-partition cluster."""
    common = dict(node_id="server-dc0-p0", dc_id=0, partition_index=0,
                  num_dcs=2, num_partitions=4, partitioner=HashPartitioner(4))
    if protocol == "cc-lo":
        return CcloKernel(gc_window_seconds=0.5, one_id_per_client=True,
                          **common)
    kernel_class, mode = {"contrarian": (ContrarianKernel, "hlc"),
                          "cure": (CureKernel, "physical")}[protocol]
    return kernel_class(clock=ClockBox(mode, clock or FixedClock(0.001),
                                       offset_us=0.0),
                        stabilization_interval=0.005,
                        heartbeat_interval=0.010, **common)


class TestScriptedEffects:
    """One PUT and one ROT through each server kernel, the whole effect list
    asserted by value: pins the handler tables, the address tables (equal to
    freshly built addresses) and the single-frame reads at the level drivers
    and the wire see."""

    CLIENT, PEER = ClientAddr("client-dc0-3"), ServerAddr(0, 2)

    @pytest.mark.parametrize("protocol, timestamp", [
        ("contrarian", 1000 << 16), ("cure", 1000)])
    def test_vector_put_then_rot(self, protocol, timestamp):
        kernel = server_kernel(protocol)
        key = key_on(0, 7)
        put = VectorPutRequest(key=key, value_size=8, client_vector=(5, 9),
                               client_id="client-dc0-3", sequence=1,
                               dependencies=(("1:1", 4),))
        assert kernel.on_message(self.CLIENT, put, now=0.001) == [
            Send(self.CLIENT, VectorPutReply(key=key, timestamp=timestamp,
                                             gss=(0, 0))),
            Send(ServerAddr(1, 0), ReplicateUpdate(
                key=key, timestamp=timestamp, origin_dc=0, value_size=8,
                dependency_vector=(timestamp, 9), dependencies=(("1:1", 4),),
                writer="client-dc0-3", sequence=1))]
        # A 1 1/2-round ROT over three partitions: two proxied reads, then
        # the coordinator's own; the remote entry of the snapshot is the
        # larger of the GSS (0) and what the client has seen (9).
        keys = (key_on(1, 1), key, key_on(2, 2))
        snapshot = (max(timestamp, 77), 9)
        rot = RotCoordinatorRequest(
            rot_id="client-dc0-3#2", keys=keys, client_local_ts=77,
            client_gss=(3, 9), client_id="client-dc0-3", two_round=False)
        assert kernel.on_message(self.CLIENT, rot, now=0.001) == [
            Send(ServerAddr(0, 1), RotProxyRead(
                rot_id="client-dc0-3#2", keys=(keys[0],), snapshot=snapshot,
                client_id="client-dc0-3")),
            Send(ServerAddr(0, 2), RotProxyRead(
                rot_id="client-dc0-3#2", keys=(keys[2],), snapshot=snapshot,
                client_id="client-dc0-3")),
            Send(self.CLIENT, RotValueReply(
                rot_id="client-dc0-3#2",
                results=(ReadResult(key, timestamp, 0, 8),),
                snapshot=snapshot, gss=(0, 0)))]
        # The read a proxy serves; a snapshot below the version's remote
        # dependency (9) excludes it, and a never-written key reads as bottom.
        for remote, expected in ((9, timestamp), (8, None)):
            read = RotProxyRead(rot_id="r", keys=(key, "0:404"),
                                snapshot=(timestamp, remote),
                                client_id="client-dc0-3")
            assert kernel.on_message(self.PEER, read, now=0.001) == [
                Send(self.CLIENT, RotValueReply(
                    rot_id="r", snapshot=(timestamp, remote), gss=(0, 0),
                    results=(ReadResult(key, expected, 0, 8 if expected else 0),
                             ReadResult("0:404", None, 0, 0))))]

    def test_two_round_rot(self):
        kernel = server_kernel("cure")
        rot = RotCoordinatorRequest(
            rot_id="c#1", keys=(key_on(0), key_on(1)), client_local_ts=0,
            client_gss=(0, 4), client_id="c", two_round=True)
        assert kernel.on_message(ClientAddr("c"), rot, now=0.001) == [
            Send(ClientAddr("c"), RotSnapshotReply(rot_id="c#1",
                                                   snapshot=(1000, 4)))]
        read = RotReadRequest(rot_id="c#1", keys=(key_on(0),),
                              snapshot=(1000, 4), client_id="c")
        assert kernel.on_message(ClientAddr("c"), read, now=0.001) == [
            Send(ClientAddr("c"), RotValueReply(
                rot_id="c#1", results=(ReadResult(key_on(0), None, 0, 0),),
                snapshot=(1000, 4), gss=(0, 0)))]

    def test_stabilization_and_heartbeat_timers(self):
        kernel = server_kernel("contrarian")
        now = 1000 << 16
        assert kernel.on_timer("stabilization", None, now=0.001) == [
            Send(ServerAddr(0, partition), StabilizationMessage(
                partition_index=0, version_vector=(now, 0),
                previous_gss=(0, 0)))
            for partition in (1, 2, 3)]
        assert kernel.on_timer("remote-heartbeat", None, now=0.001) == [
            Send(ServerAddr(1, 0), RemoteHeartbeat(origin_dc=0, timestamp=now))]
        assert kernel.peers_in_dc() == tuple(
            ServerAddr(0, partition) for partition in (1, 2, 3))
        assert kernel.replicas() == (ServerAddr(1, 0),)
        # A stabilization message and a heartbeat emit nothing; they move
        # the GSS: every peer at (5, 6), this partition at (now, 7).
        for partition in (1, 2, 3):
            assert kernel.on_message(
                ServerAddr(0, partition), StabilizationMessage(
                    partition_index=partition, version_vector=(5, 6),
                    previous_gss=(0, 0)),
                now=0.001) == []
        assert kernel.on_message(
            ServerAddr(1, 0), RemoteHeartbeat(origin_dc=1, timestamp=7),
            now=0.001) == []
        kernel.on_timer("stabilization", None, now=0.001)
        assert kernel.gss_state.gss == (5, 6)

    def test_cclo_put_then_rot(self):
        kernel = server_kernel("cc-lo")
        key = key_on(0, 7)
        put = CcloPutRequest(key=key, value_size=8, dependencies=(),
                             dependency_partitions=(),
                             client_id="client-dc0-3", sequence=1)
        assert kernel.on_message(self.CLIENT, put, now=0.0) == [
            Send(self.CLIENT, CcloPutReply(key=key, timestamp=1)),
            Send(ServerAddr(1, 0), CcloReplicateUpdate(
                key=key, timestamp=1, origin_dc=0, value_size=8,
                dependencies=(), writer="client-dc0-3", sequence=1,
                old_readers=()))]
        read = OneRoundReadRequest(rot_id="client-dc0-3#2",
                                   keys=(key, "0:404"),
                                   client_id="client-dc0-3")
        assert kernel.on_message(self.CLIENT, read, now=0.0) == [
            Send(self.CLIENT, OneRoundReadReply(
                rot_id="client-dc0-3#2",
                results=(ReadResult(key, 1, 0, 8),
                         ReadResult("0:404", None, 0, 0))))]
        assert kernel.readers.current_reader_count(key) == 1
        # A PUT that depends on a key of partition 2 asks that partition.
        put = CcloPutRequest(key=key, value_size=8,
                             dependencies=((key_on(2), 3, 0),),
                             dependency_partitions=(2,),
                             client_id="client-dc0-3", sequence=3)
        (check,) = kernel.on_message(self.CLIENT, put, now=0.0)
        assert check == Send(self.PEER, ReadersCheckRequest(
            check_id=check.message.check_id,
            dependencies=((key_on(2), 3, 0),), put_key=key, put_timestamp=4,
            require_present=False))

    @pytest.mark.parametrize("protocol", ["contrarian", "cure", "cc-lo"])
    def test_a_swapped_store_serves_the_next_read(self, protocol):
        """The layered benchmark wraps ``kernel.store`` in a timing proxy
        after construction: reads must enter through the attribute as it is
        now, never through a method bound earlier."""
        kernel = server_kernel(protocol)
        key = key_on(0)
        calls = []

        class RecordingStore(MultiVersionStore):
            def latest(self, key, predicate=None):
                calls.append(key)
                return super().latest(key, predicate)

        kernel.store = RecordingStore()
        kernel.store.install(Version(
            key=key, value=None, timestamp=3, origin_dc=1, size_bytes=5,
            dependency_vector=None if protocol == "cc-lo" else (0, 0)))
        if protocol == "cc-lo":
            read = OneRoundReadRequest(rot_id="c#1", keys=(key,),
                                       client_id="c")
        else:
            read = RotReadRequest(rot_id="c#1", keys=(key,),
                                  snapshot=(1000, 0), client_id="c")
        (reply,) = kernel.on_message(ClientAddr("c"), read, now=0.001)
        assert reply.message.results == (ReadResult(key, 3, 1, 5),)
        assert calls == [key]

    @pytest.mark.parametrize("protocol", ["contrarian", "cure", "cc-lo"])
    def test_unknown_message_type_rejected(self, protocol):
        kernel = server_kernel(protocol)
        # A reply is a registered message, but no server handles it.
        for message in (VectorPutReply(key="k", timestamp=1, gss=(0, 0)),
                        object(), None):
            with pytest.raises(ProtocolError, match="cannot handle"):
                kernel.on_message(ClientAddr("c"), message, now=0.0)


class TestClientKernels:
    def _vector_client(self, two_round=False):
        return VectorClientKernel(client_id="client-dc0-0", dc_id=0, num_dcs=2,
                                  partitioner=HashPartitioner(4),
                                  rng=random.Random(7), two_round=two_round)

    def test_put_reply_completes_with_pre_put_dependencies(self):
        kernel = self._vector_client()
        op = _Op("put", (key_on(0),))
        (send,) = kernel.start_operation(op, sequence=1, now=0.0)
        assert send.dest == ServerAddr(0, 0)
        assert isinstance(send.message, VectorPutRequest)
        (done,) = kernel.on_message(
            VectorPutReply(key=key_on(0), timestamp=9, gss=(3, 4)), now=0.1)
        assert isinstance(done, Complete) and done.op == "put"
        # The first PUT has no prior causal context...
        assert done.result.dependencies == ()
        # ...but the kernel folded the reply into its context for the next op.
        assert kernel.local_ts_seen == 9
        assert kernel.gss_seen == (3, 4)
        assert kernel.checker_dependencies() == ((key_on(0), 9, 0),)

    def test_rot_completes_after_every_partition_replied(self):
        kernel = self._vector_client()
        op = _Op("rot", (key_on(0), key_on(1)))
        (send,) = kernel.start_operation(op, sequence=2, now=0.0)
        assert isinstance(send.message, RotCoordinatorRequest)
        snapshot = (5, 5)
        from repro.core.common.messages import ReadResult
        first = RotValueReply(rot_id=send.message.rot_id,
                              results=(ReadResult(key_on(0), 4, 0, 8),),
                              snapshot=snapshot, gss=(2, 2))
        assert kernel.on_message(first, now=0.1) == []  # still one outstanding
        second = RotValueReply(rot_id=send.message.rot_id,
                               results=(ReadResult(key_on(1), 3, 1, 8),),
                               snapshot=snapshot, gss=(2, 2))
        (done,) = kernel.on_message(second, now=0.2)
        assert isinstance(done, Complete) and done.op == "rot"
        assert set(done.result.results) == {key_on(0), key_on(1)}
        assert kernel.local_ts_seen == 5  # snapshot folded into the context

    def test_reply_for_unknown_rot_rejected(self):
        kernel = self._vector_client()
        with pytest.raises(ProtocolError):
            kernel.on_message(RotValueReply(rot_id="ghost", results=(),
                                            snapshot=(0, 0), gss=(0, 0)),
                              now=0.0)

    def test_cclo_put_carries_accumulated_dependencies(self):
        kernel = CcloClientKernel(client_id="client-dc0-0", dc_id=0,
                                  partitioner=HashPartitioner(4))
        from repro.core.common.messages import OneRoundReadReply, ReadResult
        (send,) = kernel.start_operation(_Op("rot", (key_on(1),)),
                                         sequence=1, now=0.0)
        (done,) = kernel.on_message(
            OneRoundReadReply(rot_id=send.message.rot_id,
                              results=(ReadResult(key_on(1), 7, 0, 8),)),
            now=0.1)
        assert done.op == "rot"
        (put,) = kernel.start_operation(_Op("put", (key_on(0),)),
                                        sequence=2, now=0.2)
        assert put.message.dependencies == ((key_on(1), 7, 0),)
        (ack,) = kernel.on_message(CcloPutReply(key=key_on(0), timestamp=11),
                                   now=0.3)
        # The Complete effect snapshots the context from *before* the PUT
        # subsumed it; afterwards the PUT is the only nearest dependency.
        assert ack.result.dependencies == ((key_on(1), 7, 0),)
        assert kernel.checker_dependencies() == ((key_on(0), 11, 0),)

    def test_cclo_put_completes_with_the_context_it_was_sent_with(self):
        """The client builds a PUT's dependencies once, when it sends it, and
        completes the PUT with them: one operation is in flight, so the
        context cannot move in between."""
        kernel = CcloClientKernel(client_id="client-dc0-0", dc_id=0,
                                  partitioner=HashPartitioner(4))
        sequence = iter(range(1, 100))
        timestamps = iter(range(20, 100))
        puts = []

        def rot(*keys):
            effects = []
            for send in kernel.start_operation(
                    _Op("rot", keys), sequence=next(sequence), now=0.0):
                effects = kernel.on_message(OneRoundReadReply(
                    rot_id=send.message.rot_id,
                    results=tuple(ReadResult(key, next(timestamps), 1, 8)
                                  for key in send.message.keys)), now=0.0)
            (done,) = effects
            assert done.op == "rot"

        def put(key):
            (send,) = kernel.start_operation(_Op("put", (key,)),
                                             sequence=next(sequence), now=0.0)
            assert isinstance(send.message, CcloPutRequest)
            (done,) = kernel.on_message(CcloPutReply(
                key=key, timestamp=next(timestamps)), now=0.0)
            assert done.op == "put"
            assert done.result.dependencies == send.message.dependencies
            puts.append(done.result)
            return send.message

        rot(key_on(1), key_on(2))
        first = put(key_on(0))
        assert len(first.dependencies) == 2
        rot(key_on(3))
        second = put(key_on(1))
        assert len(second.dependencies) == 2
        # A PUT right after a PUT depends on exactly that PUT.
        third = put(key_on(2))
        assert third.dependencies == (
            (puts[1].key, puts[1].timestamp, puts[1].origin_dc),)


class _Op:
    """Minimal operation stand-in (duck-typed like workload operations)."""

    def __init__(self, kind, keys, value_size=8):
        self.kind = kind
        self.keys = keys
        self.value_size = value_size

    @property
    def is_put(self):
        return self.kind == "put"

    @property
    def is_rot(self):
        return self.kind == "rot"

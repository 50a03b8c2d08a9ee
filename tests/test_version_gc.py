"""Version GC keeps every version a snapshot still needs, on every run.

A Contrarian or Cure ROT is "one version" per key: a partition returns the
newest version its snapshot admits, so that version must still be stored.
The vector servers collect under a snapshot floor they exchange in
stabilization (:class:`~repro.core.vector.kernel.VectorServerKernel`'s
docstring argues the rule); CC-LO collects under its reader window.

* The checked runs below are a small, contended configuration (2 DCs x 2
  partitions, 20 keys per partition, half the operations PUTs, zipf 0.99)
  at seed 1.  Each of the three vector runs fails under a store that keeps
  the newest 16 versions of a key instead (the rule before this one): 3
  violations for Contrarian, 9 in two rounds and 28 for Cure, every one a
  read that found nothing in its snapshot.  CC-LO passes either way; its
  first run guards the window trim now that no cap backs it.  Its second,
  8 clients per DC for 1 s at seed 6, reported 5 violations while CC-LO
  kept each key's versions in arrival order (a replica receives an origin's
  versions in the order their readers checks finish there), and none with
  the chains in timestamp order.
* Every checked run ends quiesced, and its reads from both DCs must agree.
  The ``-converges`` runs (8 clients per DC for 0.3 s) fail while
  Contrarian and Cure appended each version, so that a snapshot's "newest"
  version was the last to arrive: concurrent writes of a key reached the
  two DCs in opposite orders and each DC kept returning its own.  Contrarian
  diverged on 6 of 40 keys at seed 1, Cure on 1 at seeds 1 and 3, and the
  ``inproc`` Contrarian run on 4 of 8 seeds (1 to 8).  With every chain in
  timestamp order, none diverges.
* A hypothesis property pins the store's half of the rule: a trim changes
  no read whose snapshot dominates the floor.
* Scripted tests drive two partitions of one DC by hand through the three
  hazards the rule must survive: a proxy read overtaken by a newer version,
  a read held in ``rot-block`` while the floor moves, and a two-round read
  that carries its snapshot itself.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal.streaming import StreamingChecker
from repro.clocks.timesource import FixedClock
from repro.cluster.config import ClusterConfig
from repro.cluster.partitioning import HashPartitioner
from repro.core.common.kernel import ClientAddr, Send, ServerAddr, SetTimer
from repro.core.common.messages import (
    ReadResult,
    RemoteHeartbeat,
    ReplicateUpdate,
    RotCoordinatorRequest,
    RotProxyRead,
    RotReadRequest,
    RotSnapshotReply,
    RotValueReply,
    StabilizationMessage,
)
from repro.core.vector.clockbox import ClockBox
from repro.core.vector.kernel import ContrarianKernel, CureKernel
from repro.harness.runner import run_experiment
from repro.storage.mvstore import MultiVersionStore
from repro.storage.version import Version
from repro.workload.parameters import WorkloadParameters

# --------------------------------------------------------------------------
# Checked runs
# --------------------------------------------------------------------------

CONTENDED = WorkloadParameters(write_ratio=0.5, rot_size=2, skew=0.99)


@pytest.mark.slow
@pytest.mark.parametrize("protocol, clients, seconds, rounds, seed, backend", [
    ("contrarian", 12, 0.2, 1.5, 1, "sim"),
    ("contrarian", 12, 0.3, 2.0, 1, "sim"),
    ("cure", 8, 0.15, 2.0, 1, "sim"),
    ("cc-lo", 16, 0.3, 1.5, 1, "sim"),
    ("cc-lo", 8, 1.0, 1.5, 6, "sim"),
    ("contrarian", 8, 0.3, 1.5, 1, "sim"),
    ("cure", 8, 0.3, 2.0, 1, "sim"),
    ("cure", 8, 0.3, 2.0, 3, "sim"),
    ("contrarian", 8, 1.0, 1.5, 2, "inproc"),
], ids=["contrarian", "contrarian-2-rounds", "cure", "cc-lo",
        "cc-lo-timestamp-order", "contrarian-converges", "cure-converges",
        "cure-converges-seed-3", "contrarian-inproc-converges"])
def test_a_contended_run_reads_every_snapshot_in_full(protocol, clients,
                                                      seconds, rounds, seed,
                                                      backend):
    config = ClusterConfig.test_scale(
        num_dcs=2, num_partitions=2, clients_per_dc=clients,
        keys_per_partition=20, warmup_seconds=0.05, duration_seconds=seconds,
        rot_rounds=rounds, seed=seed)
    outcome = run_experiment(protocol, config, CONTENDED, backend=backend,
                             checker=StreamingChecker.offline())
    report = outcome.checker_report
    assert report.rots > 1000
    assert report.snapshot_violations == []
    assert report.session_violations == []
    assert report.convergence_violations == []
    assert outcome.result.overhead.snapshot_misses == 0


# --------------------------------------------------------------------------
# The store's half of the rule
# --------------------------------------------------------------------------

vectors = st.tuples(st.integers(0, 6), st.integers(0, 6))


def in_snapshot(snapshot):
    def admits(version):
        return all(entry <= bound for entry, bound
                   in zip(version.dependency_vector, snapshot))
    return admits


def chain_store(vectors_in_order):
    store = MultiVersionStore()
    for stamp, vector in enumerate(vectors_in_order):
        store.install(Version("k", None, timestamp=stamp,
                              dependency_vector=vector))
    return store


def test_install_collects_nothing():
    store = chain_store([(stamp, 0) for stamp in range(40)])
    assert store.version_count("k") == 40
    assert store.versions_collected == 0


@given(st.lists(vectors, min_size=1, max_size=12), vectors,
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8))
@settings(max_examples=300, deadline=None)
def test_a_trim_changes_no_read_whose_snapshot_dominates_the_floor(
        chain, floor, raises):
    store = chain_store(chain)
    snapshots = [floor] + [tuple(entry + step for entry, step
                                 in zip(floor, raise_by))
                           for raise_by in raises]
    before = [store.latest("k", in_snapshot(snapshot))
              for snapshot in snapshots]
    store.collect_below_floor("k", floor)
    kept = store.versions("k")
    cut = len(chain) - len(kept)
    # Only the front goes, and only below a next version under the floor.
    assert [v.dependency_vector for v in kept] == chain[cut:]
    for index in range(1, cut + 1):
        assert all(entry <= bound for entry, bound
                   in zip(chain[index], floor))
    assert cut == len(chain) - 1 or not all(
        entry <= bound for entry, bound in zip(chain[cut + 1], floor))
    assert store.versions_collected == cut
    assert [store.latest("k", in_snapshot(snapshot))
            for snapshot in snapshots] == before


# --------------------------------------------------------------------------
# Scripted hazards: partitions 0 and 1 of DC 0 in a 2-DC cluster
# --------------------------------------------------------------------------

CLIENT = ClientAddr("c")
KEY = HashPartitioner.structured_key(1, 0)


class TwoPartitions:
    """Two partition kernels of DC 0 on one manual clock.

    Messages between them wait on FIFO channels until :meth:`deliver`; the
    versions of :data:`KEY` (stored on partition 1) arrive from DC 1 by
    hand, with dependency vectors ``(0, t)``.
    """

    def __init__(self, kernel_class, mode):
        self.time = FixedClock(0.001)
        self.servers = [kernel_class(
            node_id=f"server-dc0-p{index}", dc_id=0, partition_index=index,
            num_dcs=2, num_partitions=2, partitioner=HashPartitioner(2),
            clock=ClockBox(mode, self.time, offset_us=0.0),
            stabilization_interval=0.005, heartbeat_interval=0.005)
            for index in (0, 1)]
        self.channels = {(0, 1): [], (1, 0): []}

    def route(self, source, effects):
        out = []
        for effect in effects:
            if isinstance(effect, Send) and isinstance(effect.dest,
                                                       ServerAddr):
                self.channels[source, effect.dest.partition].append(
                    effect.message)
            else:
                out.append(effect)
        return out

    def broadcast(self, index):
        self.route(index, self.servers[index].on_timer(
            "stabilization", None, now=self.time.now))

    def deliver(self, source, count=None):
        """Deliver the oldest ``count`` (default: all) messages from
        ``source`` to the other partition; return what they emitted."""
        channel = self.channels[source, 1 - source]
        count = len(channel) if count is None else count
        out = []
        for message in channel[:count]:
            out += self.route(1 - source, self.servers[1 - source].on_message(
                ServerAddr(0, source), message, now=self.time.now))
        del channel[:count]
        return out

    def round(self):
        """One stabilization round, both broadcasts delivered."""
        for index in (0, 1):
            self.broadcast(index)
            self.deliver(index)

    def remote(self, stamp):
        """DC 1 replicates a version of KEY to partition 1 and heartbeats
        partition 0, both at ``stamp``."""
        target, other = self.servers[1], self.servers[0]
        target.on_message(ServerAddr(1, 1), ReplicateUpdate(
            key=KEY, timestamp=stamp, origin_dc=1, value_size=8,
            dependency_vector=(0, stamp)), now=self.time.now)
        other.on_message(ServerAddr(1, 0), RemoteHeartbeat(
            origin_dc=1, timestamp=stamp), now=self.time.now)

    def stable(self):
        """Each partition's GSS entry for DC 1."""
        return [server.gss_state.gss[1] for server in self.servers]

    def stored(self):
        return [version.timestamp
                for version in self.servers[1].store.versions(KEY)]


def read_result(effects):
    (send,) = effects
    assert send.dest == CLIENT and isinstance(send.message, RotValueReply)
    (result,) = send.message.results
    return result


def settle(dc, stamp):
    """Versions 10 and ``stamp`` of KEY, and enough rounds that both GSSes
    and the target's floor stand at ``stamp`` in DC 1's entry."""
    dc.remote(10)
    dc.remote(stamp)
    for _ in range(3):
        dc.round()
    assert dc.stable() == [stamp, stamp]
    assert dc.servers[1].gss_state.gc_floor()[1] == stamp


class TestScriptedHazards:
    def test_a_proxy_read_overtaken_by_a_newer_version_reads_its_snapshot(
            self):
        dc = TwoPartitions(ContrarianKernel, "hlc")
        settle(dc, 20)
        # DC 1 moves to 30; the target learns first: its GSS reaches 30
        # while its own broadcast to the coordinator is still in flight.
        dc.remote(30)
        dc.broadcast(0)
        dc.broadcast(1)
        dc.deliver(0)
        assert dc.stable() == [20, 30]
        # The coordinator chooses snapshot (now, 20) and proxies the read.
        assert dc.route(0, dc.servers[0].on_message(
            CLIENT, RotCoordinatorRequest(
                rot_id="c#1", keys=(KEY,), client_local_ts=0,
                client_gss=(0, 0), client_id="c", two_round=False),
            now=dc.time.now)) == []
        (proxy,) = dc.channels[0, 1]
        assert isinstance(proxy, RotProxyRead) and proxy.snapshot[1] == 20
        # The coordinator's next broadcast follows it on the channel.
        dc.broadcast(0)
        # Before the read arrives the target broadcasts again and installs
        # two newer versions; a floor of its own GSS (30) would drop
        # version 20.
        dc.broadcast(1)
        dc.remote(40)
        dc.remote(50)
        assert 20 in dc.stored()
        result = read_result(dc.deliver(0, count=1))
        assert result == ReadResult(KEY, 20, 1, 8)
        assert dc.servers[1].counters.snapshot_misses == 0
        (behind,) = dc.channels[0, 1]
        assert isinstance(behind, StabilizationMessage)

    def test_a_read_held_in_rot_block_keeps_its_snapshot_in_the_floor(self):
        dc = TwoPartitions(CureKernel, "physical")
        settle(dc, 20)
        # A read with a snapshot 3 ms ahead of the target's clock blocks.
        snapshot = (dc.servers[1].clock.read() + 3000, 20)
        (timer,) = dc.servers[1].on_message(CLIENT, RotReadRequest(
            rot_id="c#1", keys=(KEY,), snapshot=snapshot, client_id="c"),
            now=dc.time.now)
        assert isinstance(timer, SetTimer) and timer.tag == "rot-block"
        # Three rounds move every floor term past 30, and newer versions
        # arrive; the held snapshot keeps version 20.
        dc.remote(30)
        dc.remote(40)
        for _ in range(3):
            dc.round()
        assert dc.servers[1].gss_state.gc_floor()[1] >= 30
        dc.remote(50)
        assert 20 in dc.stored()
        dc.time.advance(0.003)
        result = read_result(dc.servers[1].on_timer(
            timer.tag, timer.payload, now=dc.time.now))
        assert result == ReadResult(KEY, 20, 1, 8)
        assert dc.servers[1].counters.snapshot_misses == 0
        # Served, it no longer holds the floor down.
        dc.round()
        dc.remote(60)
        assert 20 not in dc.stored()

    def test_a_two_round_read_within_one_interval_reads_its_snapshot(self):
        dc = TwoPartitions(CureKernel, "physical")
        settle(dc, 20)
        # DC 1 moves to 30; the coordinator's broadcast arrives, the
        # target's is still in flight, so only the target's GSS reaches 30.
        dc.remote(30)
        dc.broadcast(0)
        dc.deliver(0)
        dc.broadcast(1)
        assert dc.stable() == [20, 30]
        (send,) = dc.servers[0].on_message(CLIENT, RotCoordinatorRequest(
            rot_id="c#1", keys=(KEY,), client_local_ts=0, client_gss=(0, 0),
            client_id="c", two_round=True), now=dc.time.now)
        assert isinstance(send.message, RotSnapshotReply)
        snapshot = send.message.snapshot
        assert snapshot[1] == 20
        read = RotReadRequest(rot_id="c#1", keys=(KEY,), snapshot=snapshot,
                              client_id="c")
        # Within one interval: the coordinator's GSS reaches 30 and it
        # broadcasts once, the target folds that into its floor, and a
        # newer version arrives.  Had the broadcast carried the current
        # GSS (30), version 20 would be gone.
        dc.deliver(1)
        assert dc.stable() == [30, 30]
        dc.broadcast(0)
        dc.deliver(0)
        dc.broadcast(1)
        dc.remote(40)
        assert 20 in dc.stored()
        assert read_result(dc.servers[1].on_message(
            CLIENT, read, now=dc.time.now)) == ReadResult(KEY, 20, 1, 8)
        # Two rounds later the same read breaks the assumption: it finds
        # nothing, and that is counted, not passed off as bottom.
        dc.round()
        dc.round()
        dc.remote(50)
        assert 20 not in dc.stored()
        assert read_result(dc.servers[1].on_message(
            CLIENT, read, now=dc.time.now)) == ReadResult(KEY, None, 0, 0)
        assert dc.servers[1].counters.snapshot_misses == 1


def test_a_read_that_finds_no_version_in_its_snapshot_is_counted():
    dc = TwoPartitions(ContrarianKernel, "hlc")
    dc.remote(10)
    dc.remote(20)
    target = dc.servers[1]
    # Collect version 10, the only one snapshot (now, 10) admits, by hand.
    target.store.collect_below_floor(KEY, (0, 20))
    assert dc.stored() == [20]

    def read(keys):
        return target.on_message(CLIENT, RotReadRequest(
            rot_id="c#1", keys=keys, snapshot=(target.clock.read(), 10),
            client_id="c"), now=dc.time.now)

    (send,) = read((KEY,))
    assert send.message.results == (ReadResult(KEY, None, 0, 0),)
    assert target.counters.snapshot_misses == 1
    # A key never written here reads as bottom without a miss.
    read((HashPartitioner.structured_key(1, 1),))
    assert target.counters.snapshot_misses == 1

"""CC-LO's version garbage collection: the window trim and shared old readers.

A CC-LO version is collected once a newer version of its key has been
visible for a full reader window (``MultiVersionStore.collect_superseded``,
run by ``CcloKernel`` each time a version turns visible).  The trim never
drops an invisible version or the newest visible version of an origin DC,
and a retention policy may veto it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.partitioning import HashPartitioner
from repro.core.cclo.kernel import CcloKernel
from repro.core.common.kernel import ClientAddr, ServerAddr
from repro.core.common.messages import (
    CcloPutRequest,
    CcloReplicateUpdate,
    OneRoundReadRequest,
    ReadersCheckReply,
    ReadersCheckRequest,
)
from repro.harness.builder import build_cluster
from repro.harness.runner import run_experiment
from repro.storage.mvstore import MultiVersionStore
from repro.storage.version import NO_OLD_READERS, Version
from repro.workload.parameters import DEFAULT_WORKLOAD

WINDOW = 0.5


def version(ts, *, visible=True, visible_at=0.0, origin=0, key="k"):
    return Version(key=key, value=None, timestamp=ts, origin_dc=origin,
                   visible=visible, visible_at=visible_at)


def store_of(*versions):
    store = MultiVersionStore()
    for each in versions:
        store.install(each)
    return store


class TestWindowTrim:
    def test_a_version_superseded_less_than_a_window_ago_survives(self):
        old, new = version(1), version(2, visible_at=1.0)
        store = store_of(old, new)
        store.collect_superseded("k", horizon=1.2 - WINDOW)
        assert store.versions("k") == (old, new)
        assert store.versions_collected == 0

    def test_a_version_superseded_more_than_a_window_ago_is_collected(self):
        old, new = version(1), version(2, visible_at=1.0)
        store = store_of(old, new)
        store.collect_superseded("k", horizon=1.6 - WINDOW)
        assert store.versions("k") == (new,)
        assert store.versions_collected == 1

    def test_an_invisible_version_is_never_collected(self):
        pending = version(1, visible=False)
        newer = version(2, visible_at=1.0)
        newest = version(3, visible_at=1.1)
        store = store_of(pending, newer, newest)
        store.collect_superseded("k", horizon=10.0)
        assert store.versions("k") == (pending, newer, newest)
        # Behind a visible front, the trim stops at the invisible version.
        front = version(0)
        store = store_of(front, version(1, visible=False, visible_at=1.0),
                         newest)
        store.collect_superseded("k", horizon=10.0)
        assert store.versions("k")[0] is front

    def test_each_origins_newest_visible_version_survives(self):
        remote = version(5, origin=1)
        local = [version(ts, visible_at=float(ts)) for ts in (6, 7, 8)]
        store = store_of(remote, *local)
        store.collect_superseded("k", horizon=10.0)
        # The remote version is DC 1's newest: it stays, and so does
        # everything behind it (the trim only cuts the chain's front).
        assert store.versions("k") == (remote, *local)
        newer_remote = version(9, origin=1, visible_at=9.0)
        store.install(newer_remote)
        store.collect_superseded("k", horizon=10.0)
        # Now DC 0's newest stops the trim.
        assert store.versions("k") == (local[-1], newer_remote)

    def test_an_older_stamp_of_the_origin_does_not_stall_the_trim(self):
        # Replication installs an origin's versions in the order their
        # readers checks finish: the front's next version of its origin may
        # carry a smaller timestamp, and a newer one behind it still covers
        # the front.
        front, behind = version(5), version(4, visible_at=1.0)
        newer = version(6, visible_at=1.0)
        store = store_of(front, behind, newer)
        store.collect_superseded("k", horizon=10.0)
        assert store.versions("k") == (newer,)

    def test_a_retention_policy_can_veto_the_trim(self):
        old, new = version(1), version(2, visible_at=1.0)
        store = store_of(old, new)
        asked = []

        def keep_everything(chain, excess):
            asked.append(excess)
            return 0

        store.set_retention_policy(keep_everything)
        store.collect_superseded("k", horizon=10.0)
        assert asked == [1]
        assert store.versions("k") == (old, new)
        assert store.versions_collected == 0

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 1),
                              st.floats(0.0, 2.0)),
                    min_size=1, max_size=12),
           st.floats(0.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_the_trim_cuts_only_superseded_versions_off_the_front(
            self, shapes, horizon):
        chain = [version(ts, visible=visible, visible_at=visible_at,
                         origin=origin)
                 for ts, (visible, origin, visible_at) in enumerate(shapes)]
        store = store_of(*chain)

        def present(versions, origin, ts):
            return any(v.visible and v.origin_dc == origin
                       and v.timestamp >= ts for v in versions)

        store.collect_superseded("k", horizon)
        kept = store.versions("k")
        cut = len(chain) - len(kept)
        assert kept == tuple(chain[cut:])
        for index in range(cut):
            assert chain[index].visible
            successor = chain[index + 1]
            assert successor.visible and successor.visible_at <= horizon
        for origin in (0, 1):
            for ts in range(len(chain) + 1):
                assert present(kept, origin, ts) == present(chain, origin, ts)


def cclo_kernel(num_dcs=1):
    return CcloKernel(node_id="server-dc0-p0", dc_id=0, partition_index=0,
                      num_dcs=num_dcs, num_partitions=4,
                      partitioner=HashPartitioner(4),
                      gc_window_seconds=WINDOW, one_id_per_client=True)


def key_on(partition, index=0):
    return HashPartitioner.structured_key(partition, index)


class TestKernelTrim:
    def _put(self, kernel, key, now, dependencies=()):
        kernel.on_message(ClientAddr("writer"), CcloPutRequest(
            key=key, value_size=8, dependencies=dependencies,
            dependency_partitions=(0,) * len(dependencies),
            client_id="writer", sequence=0), now=now)
        return kernel.store.latest(key)

    def _read(self, kernel, key, rot_id, now):
        (reply,) = kernel.on_message(ClientAddr("c1"), OneRoundReadRequest(
            rot_id=rot_id, keys=(key,), client_id="c1"), now=now)
        return reply.message.results[0].timestamp

    def test_a_barred_rot_reads_the_older_version_within_the_window(self):
        kernel = cclo_kernel()
        key, dependency = key_on(0, 0), key_on(0, 1)
        preloaded = version(0, key=key)
        kernel.store.preload([preloaded, version(0, key=dependency)])
        # c1#1 missed the latest version of the dependency, so a version
        # written after it must bar c1#1.
        kernel.readers.record_old_reader(dependency, "c1#1", "c1", 5, now=0.9)
        barring = self._put(kernel, key, 1.0, ((dependency, 0, 0),))
        assert "c1#1" in barring.old_readers and barring.visible_at == 1.0
        again = self._put(kernel, key, 1.2, ((dependency, 0, 0),))
        assert "c1#1" in again.old_readers
        # Inside the window of the first barring version the preloaded one
        # stays readable for the barred ROT.
        assert kernel.store.versions(key)[0] is preloaded
        assert self._read(kernel, key, "c1#1", now=1.3) == 0
        assert self._read(kernel, key, "c2#1", now=1.3) == again.timestamp
        # A window after it turned visible, the preloaded version goes.
        newest = self._put(kernel, key, 1.6)
        assert kernel.store.versions(key) == (barring, again, newest)

    def test_a_remote_dependency_check_still_finds_each_origins_newest(self):
        kernel = cclo_kernel(num_dcs=2)
        key = key_on(0, 0)
        remote = version(3, key=key, origin=1)
        kernel.store.preload([remote])
        for now in (1.0, 2.0, 3.0):
            self._put(kernel, key, now)
        assert kernel.store.versions(key)[0] is remote
        request = ReadersCheckRequest(check_id="server-dc0-p1:chk0",
                                      dependencies=((key, 3, 1),),
                                      put_key=key_on(1), put_timestamp=9,
                                      require_present=True)
        (reply,) = kernel.on_message(ServerAddr(0, 1), request, now=3.5)
        assert isinstance(reply.message, ReadersCheckReply)


class TestDependencyWaits:
    """Readers-check legs waiting for dependencies are indexed by the key
    they miss: a version turning visible re-tests only the legs missing its
    key, and the legs it releases go in the order they began to wait."""

    @staticmethod
    def _replicate(kernel, key, timestamp, dependencies=(), now=1.0):
        effects = kernel.on_message(ServerAddr(1, 0), CcloReplicateUpdate(
            key=key, timestamp=timestamp, origin_dc=1, value_size=8,
            dependencies=dependencies, writer="remote", sequence=timestamp),
            now=now)
        return [effect.message.check_id for effect in effects
                if isinstance(effect.message, ReadersCheckReply)]

    def test_a_visible_version_answers_only_the_legs_it_completes(self):
        kernel = cclo_kernel(num_dcs=2)
        a, b = key_on(0, 0), key_on(0, 1)
        for check_id, dependencies in (("x:1", ((a, 5, 1),)),
                                       ("x:2", ((a, 5, 1), (b, 6, 1))),
                                       ("x:3", ((b, 6, 1),)),
                                       ("x:4", ((a, 7, 1),))):
            assert kernel.on_message(ServerAddr(0, 1), ReadersCheckRequest(
                check_id=check_id, dependencies=dependencies, put_key=a,
                put_timestamp=9, require_present=True), now=0.5) == []
        assert self._replicate(kernel, a, 5) == ["x:1"]
        assert self._replicate(kernel, b, 6) == ["x:2", "x:3"]
        assert self._replicate(kernel, a, 6) == []
        assert self._replicate(kernel, a, 7) == ["x:4"]
        assert kernel._waiting_remote_checks == {}

    def test_a_local_leg_waits_for_its_dependency_in_ordered_mode(self):
        kernel = cclo_kernel(num_dcs=2)
        kernel.enable_ordered_replication()
        a, b = key_on(0, 0), key_on(0, 1)
        self._replicate(kernel, a, 4, dependencies=((b, 3, 1),))
        assert not kernel.store.latest(a).visible
        self._replicate(kernel, b, 3)
        assert kernel.store.latest(a).visible
        assert kernel._waiting_local_checks == {}


def test_a_short_window_bounds_every_servers_versions_as_puts_grow():
    config = ClusterConfig.test_scale(seed=7, num_dcs=2, clients_per_dc=4,
                                      duration_seconds=1.0,
                                      cclo_gc_window_ms=20.0)
    cluster = build_cluster("cc-lo", config, DEFAULT_WORKLOAD)
    cluster.start()
    servers = list(cluster.topology.all_servers())
    samples = []
    for until in (0.5, 1.0):
        cluster.sim.run(until=until)
        samples.append([(server.store.version_count(),
                         server.store.puts_applied) for server in servers])
    cluster.stop()
    for server, (half, full) in zip(servers, zip(*samples)):
        assert full[1] > 1.8 * half[1] > 1000
        # Per key: each origin DC's newest visible version, the version
        # visible a window ago and the few that turned visible since (about
        # 0.7 PUTs per key per 20 ms here); nothing else collects them.
        assert full[0] <= (config.num_dcs + 3) * len(server.store)
        assert full[0] <= 1.2 * half[0]


def test_the_shared_empty_old_readers_stay_empty_through_a_cclo_run():
    config = ClusterConfig.test_scale(seed=7, num_dcs=2, clients_per_dc=2,
                                      duration_seconds=0.2)
    outcome = run_experiment("cc-lo", config)
    shared = barring = 0
    for server in outcome.cluster.topology.all_servers():
        for key in server.store.keys():
            for each in server.store.versions(key):
                if each.old_readers is NO_OLD_READERS:
                    shared += 1
                else:
                    assert type(each.old_readers) is dict and each.old_readers
                    barring += 1
    assert shared and barring
    assert len(NO_OLD_READERS) == 0 and dict(NO_OLD_READERS) == {}
    assert Version("k", None, 1).old_readers is NO_OLD_READERS

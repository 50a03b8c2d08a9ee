"""Tests for the multi-version store and version objects."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.mvstore import MultiVersionStore
from repro.storage.version import NO_OLD_READERS, Version


def make_version(key="k", ts=1, visible=True, **kwargs):
    return Version(key=key, value=None, timestamp=ts, visible=visible, **kwargs)


class TestVersion:
    def test_visibility_flag(self):
        assert make_version(visible=True).visible
        assert not make_version(visible=False).visible

    def test_defaults(self):
        version = make_version()
        assert version.dependency_vector is None
        assert version.old_readers is NO_OLD_READERS
        assert version.origin_dc == 0


class TestMultiVersionStore:
    def test_install_and_read_latest(self):
        store = MultiVersionStore()
        store.install(make_version(ts=1))
        store.install(make_version(ts=2))
        assert store.latest("k").timestamp == 2

    def test_missing_key_returns_none(self):
        assert MultiVersionStore().latest("nope") is None

    def test_latest_with_predicate(self):
        store = MultiVersionStore()
        store.install(make_version(ts=1))
        store.install(make_version(ts=2))
        store.install(make_version(ts=3))
        assert store.latest("k", lambda v: v.timestamp <= 2).timestamp == 2

    def test_latest_visible_skips_invisible(self):
        store = MultiVersionStore()
        store.install(make_version(ts=1, visible=True))
        store.install(make_version(ts=2, visible=False))
        assert store.latest_visible("k").timestamp == 1

    def test_no_version_satisfies_predicate(self):
        store = MultiVersionStore()
        store.install(make_version(ts=5))
        assert store.latest("k", lambda v: v.timestamp < 5) is None

    def test_versions_returned_oldest_first(self):
        store = MultiVersionStore()
        for ts in (1, 2, 3):
            store.install(make_version(ts=ts))
        assert [v.timestamp for v in store.versions("k")] == [1, 2, 3]

    def test_contains_and_len(self):
        store = MultiVersionStore()
        store.install(make_version(key="a"))
        store.install(make_version(key="b"))
        assert store.contains("a")
        assert not store.contains("c")
        assert len(store) == 2
        assert set(store.keys()) == {"a", "b"}

    def test_version_count(self):
        store = MultiVersionStore()
        store.install(make_version(key="a", ts=1))
        store.install(make_version(key="a", ts=2))
        store.install(make_version(key="b", ts=1))
        assert store.version_count("a") == 2
        assert store.version_count() == 3

    def test_preload_does_not_count_as_puts(self):
        store = MultiVersionStore()
        store.preload(make_version(key=f"k{i}") for i in range(10))
        assert store.puts_applied == 0
        assert len(store) == 10

    def test_puts_applied_counter(self):
        store = MultiVersionStore()
        store.install(make_version())
        store.install(make_version(ts=2))
        assert store.puts_applied == 2

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=50),
                              st.integers(min_value=0, max_value=2)),
                    min_size=1, max_size=60, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_latest_is_the_newest_in_timestamp_order(self, stamps):
        """Whatever order ``(timestamp, origin_dc)`` pairs arrive in,
        ``latest`` is their maximum and the chain is sorted."""
        store = MultiVersionStore()
        for ts, origin in stamps:
            store.install(make_version(ts=ts, origin_dc=origin))
        latest = store.latest("k")
        assert (latest.timestamp, latest.origin_dc) == max(stamps)
        assert [(v.timestamp, v.origin_dc) for v in store.versions("k")] \
            == sorted(stamps)

    def test_an_equal_stamp_goes_after_the_stored_one(self):
        store = MultiVersionStore()
        store.install(make_version(ts=3, writer="first"))
        store.install(make_version(ts=3, writer="second"))
        assert [v.writer for v in store.versions("k")] == ["first", "second"]

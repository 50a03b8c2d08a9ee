"""The indexed reader records against their definition, the scan.

``repro.core.cclo.readers`` answers a readers check from a per-key index;
``tests/cclo_readers_oracle.py`` is the implementation it replaced, which
rescans every record of the window on every check and *defines* the result.
The state machines below replay random call sequences against both — few
keys, clients, sequence numbers and logical times, time that often stands
still, so that ties, ids recorded again with a *lower* logical time and equal
timestamps all occur — and compare after every call: each reply as a set (its
order is the one thing left free), every counter the simulator's cost model
and the fault controller read.  The cases at the bottom name the two events
that force the index to rescan a key, and the tie rule.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from cclo_readers_oracle import ReaderRecords as ScanReaderRecords
from repro.core.cclo.readers import ReaderRecords
from repro.core.common.kernel import ClientKernel

GC_WINDOW = 1.0
KEYS = ("x", "y", "z")
KEY = st.sampled_from(KEYS)
CLIENT = st.sampled_from(("c1", "c2", "c3"))
ROT_ID = st.builds("{}#{}".format, CLIENT, st.integers(0, 3))
LOGICAL_TIME = st.integers(0, 3)
client_of = ClientKernel.rot_client_id


class ReaderRecordsMachine(RuleBasedStateMachine):
    """Both implementations, fed the same calls at the same times."""

    one_id_per_client = True

    def __init__(self):
        super().__init__()
        self.records = ReaderRecords(GC_WINDOW, self.one_id_per_client)
        self.scan = ScanReaderRecords(GC_WINDOW, self.one_id_per_client)
        self.now = 0.0

    @rule(step=st.sampled_from((0.25, 0.5, 1.0, 1.5)))
    def time_passes(self, step):
        self.now += step

    @rule(key=KEY, rot_id=ROT_ID, logical_time=LOGICAL_TIME)
    def record_current_reader(self, key, rot_id, logical_time):
        for records in (self.records, self.scan):
            records.record_current_reader(key, rot_id, client_of(rot_id),
                                          logical_time, self.now)

    @rule(key=KEY, rot_id=ROT_ID, logical_time=LOGICAL_TIME)
    def record_old_reader(self, key, rot_id, logical_time):
        for records in (self.records, self.scan):
            records.record_old_reader(key, rot_id, client_of(rot_id),
                                      logical_time, self.now)

    @rule(key=KEY, readers=st.dictionaries(ROT_ID, LOGICAL_TIME, max_size=4))
    def record_old_readers(self, key, readers):
        # The scan never had the bulk call: CcloKernel made it one id at a
        # time, deriving each client from the id.
        self.records.record_old_readers(key, readers, self.now)
        for rot_id, logical_time in readers.items():
            self.scan.record_old_reader(key, rot_id, client_of(rot_id),
                                        logical_time, self.now)

    @rule(key=KEY)
    def on_version_visible(self, key):
        assert (self.records.on_version_visible(key, self.now)
                == self.scan.on_version_visible(key, self.now))

    @rule(keys=st.lists(KEY, min_size=1, max_size=3))
    def collect_for_response(self, keys):
        assert (sorted(self.records.collect_for_response(keys, self.now))
                == sorted(self.scan.collect_for_response(keys, self.now)))

    @rule(key=KEY)
    def old_readers_of(self, key):
        assert (sorted(self.records.old_readers_of(key, self.now))
                == sorted(self.scan.old_readers_of(key, self.now)))

    @rule()
    def collect_garbage(self):
        assert (self.records.collect_garbage(self.now)
                == self.scan.collect_garbage(self.now))

    @invariant()
    def counters_agree(self):
        for key in KEYS:
            assert (self.records.old_reader_count(key)
                    == self.scan.old_reader_count(key))
            assert (self.records.current_reader_count(key)
                    == self.scan.current_reader_count(key))
        assert self.records.entries_expired == self.scan.entries_expired
        assert (self.records.total_tracked_entries()
                == self.scan.total_tracked_entries())


class UncompressedReaderRecordsMachine(ReaderRecordsMachine):
    one_id_per_client = False


#: Reproducible in tier-1; ``max_examples`` comes from the loaded hypothesis
#: profile (the nightly job loads one with ten times the default).
_SETTINGS = settings(derandomize=True, deadline=None)
ReaderRecordsMachine.TestCase.settings = _SETTINGS
UncompressedReaderRecordsMachine.TestCase.settings = _SETTINGS
TestOneIdPerClient = ReaderRecordsMachine.TestCase
TestEveryId = UncompressedReaderRecordsMachine.TestCase


@pytest.fixture(params=(ReaderRecords, ScanReaderRecords),
                ids=("indexed", "scan"))
def records(request):
    return request.param(GC_WINDOW, True)


def test_an_id_recorded_again_with_a_lower_time_gives_up_its_place(records):
    records.record_old_reader("x", "c1#1", "c1", 5, now=0.0)
    records.record_old_reader("x", "c1#2", "c1", 3, now=0.0)
    assert records.old_readers_of("x", now=0.0) == [("c1#1", 5)]
    records.record_old_reader("x", "c1#1", "c1", 1, now=0.1)
    # Without the rescan the index would still name c1#1, now at time 1.
    assert records.old_readers_of("x", now=0.1) == [("c1#2", 3)]


def test_the_named_record_expiring_first_hands_over_to_a_later_one(records):
    records.record_old_reader("x", "c1#1", "c1", 9, now=0.0)
    records.record_old_reader("x", "c1#2", "c1", 5, now=0.3)
    records.record_old_reader("x", "c1#3", "c1", 3, now=0.6)
    assert records.old_readers_of("x", now=0.9) == [("c1#1", 9)]
    assert records.old_readers_of("x", now=1.2) == [("c1#2", 5)]
    # The record found by a rescan is itself followed by a later one.
    assert records.old_readers_of("x", now=1.5) == [("c1#3", 3)]
    assert records.old_reader_count("x") == 1
    assert records.old_readers_of("x", now=1.8) == []
    assert records.entries_expired == 3


def test_a_tie_goes_to_the_id_that_entered_the_key_first(records):
    records.record_old_reader("x", "c1#1", "c1", 2, now=0.0)
    records.record_old_reader("x", "c1#2", "c1", 4, now=0.0)
    assert records.old_readers_of("x", now=0.0) == [("c1#2", 4)]
    # Recorded again, c1#1 expires after c1#2 but still entered before it.
    records.record_old_reader("x", "c1#1", "c1", 4, now=0.5)
    assert records.old_readers_of("x", now=0.5) == [("c1#1", 4)]
    assert records.old_readers_of("x", now=1.2) == [("c1#1", 4)]
    assert records.old_reader_count("x") == 1

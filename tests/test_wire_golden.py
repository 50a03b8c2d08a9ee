"""Golden frames: the sha256 of every registered type's sample frame.

The samples come from the codec's own field plan (``wire_support.sample``),
so this file lists no fields — only what the bytes hashed to when the layout
was last changed on purpose.  If a test here fails, the binary layout of a
type moved: peers built from different trees would mis-parse each other, so
**bump ``WIRE_VERSION``** (and regenerate with ``python
tests/test_wire_golden.py``) — or fix the accidental change.  A type
registered later fails ``test_every_registered_type_is_pinned`` until its
hash is added.
"""

import hashlib

from repro.wire.batch import encode_batch
from repro.wire.codec import WIRE_VERSION, encode
from wire_support import EVERY_TYPE, WIRE_TYPES, sample

#: The wire version the hashes below were generated for.
GOLDEN_WIRE_VERSION = 4

GOLDEN_FRAMES = {
    "ReadResult":
        "e29eec6a3665d606070d1fbb135a2b84ff4c865ba721e945f3994ab416579c9f",
    "VectorPutRequest":
        "94701d4e0c48c5a145ab845bcf11c077e1f6e3eb6223a6de202f5e61d9b60948",
    "VectorPutReply":
        "07ad79efdd46c428a2bb1cfad1658713c04ecbc0139b7db311b03330ce0bb502",
    "RotCoordinatorRequest":
        "6d1b8704ea4a357bbae1ab3c9c458c11e57b4e6ddcb6dba02648ce724523f027",
    "RotSnapshotReply":
        "761f9f6dd2573769e685fbc480cf78dad7f305b26943d766a139ba91710e25c3",
    "RotProxyRead":
        "06739a4af51dff02567fc11e4d77d92944bc9cb960be53a1bd7be5f202821b59",
    "RotReadRequest":
        "01afa14a0569a28b8f2098c1385d78e98fa1b12bf089f565a34da17b3b1a642c",
    "RotValueReply":
        "e133785c7e6793385669816e1d4b0aca9dc5df2e778ec904b3caf969b39cb4ed",
    "RemoteHeartbeat":
        "d6550929290877d403023bb85cd74232abbaae091f4c3348ab2b1e106709d278",
    "StabilizationMessage":
        "18311446f4182fefe4812acb92f11d08e85ff1c5a7f9c1cdf028fea64f2f929e",
    "ReplicateUpdate":
        "511ca75382e42775b0f8175207233c3602ae6a7a9e4c55b68c684e99003a42c9",
    "OneRoundReadRequest":
        "de532bbd261a851c8e1e0674169dd85fe137a1011ce278923c0f1ebbd797d7d3",
    "OneRoundReadReply":
        "9b0e36ecbfcfad0b3274941f1ef7a0ec8422e455226efe0f713f9d2097a1bcd4",
    "CcloPutRequest":
        "68006155708c69a494757f6c9fdebf000030eb41ee552eca1688b8d937ec42e1",
    "CcloPutReply":
        "95361918d75ed922528193233033d3aaaa282fdcd276e5f58e306d025d27b663",
    "ReadersCheckRequest":
        "77179d22af7aad579c76fd82e42759ce9445fdaa9189b80a7e68ab7ce29171b5",
    "ReadersCheckReply":
        "a36a321db0b823ac2bf17e749c50fee517b55aa3163a1a39cdc3d73a33f2c574",
    "CcloReplicateUpdate":
        "0a4e6eb3cc654c01bba5a6a8e55ca22ce650cedfea1a71e5d38a8fc31c6677c2",
    "ServerAddr":
        "3137c94fe5bc5906780a0497af98d29cd531e562da1ae006faf2d7a42bb97bb2",
    "ClientAddr":
        "c2eb82c43830014ef0ad2ee30a82c77a65db72600d790448cbd10a6eb2ebac24",
    "Envelope":
        "158a289eaef72337df20dc33cee7e1b94b9f832fbcbd45c0260d14db018951af",
    "RecordedPut":
        "859b07deb9857d792a14304e89c93d762792faa59fbce6ed502f402315904967",
    "RecordedRead":
        "cb3c5dba69553242ec01d005b446acd701dec112be813abef8d039bccb4f7368",
    "RecordedRot":
        "64a2fb780178c742ca7d851758ccd58e20382112ce20bddc19bd77869f6eed26",
    "OverheadCounters":
        "fcc8212d6fc2a5bb39f668b1bdf67d73904ca6fb3044b37f2b30522c05de025b",
    "TraceEvent":
        "bfbf7d0a01ca37d45603df71796a9f8eda722923fc46af0b689111fbe3d43d67",
    "WorkerHello":
        "bd343bc664aa4bc84073e34a3e11b344cbacb5f175049ba7ee9d2dfa1a2af541",
    "PeerEntry":
        "75c7264c128c28de671d6446ae9ba2fe9994ec97cfd4986972c6d1e71fd01c37",
    "PeerTable":
        "3bb4b3d44e93a28bc7ac3f29ee43c590bbeff3a205bde0344b3994cee16fe575",
    "WorkerReady":
        "b0664ae6605ac039da86a0292f863773810c6e655e3f7628b42a59bfb5516ea8",
    "StartRun":
        "c67b6dda5c516c18f7dcc0ffc6fdb6fde4c5ef493e119d84298b398310aaace4",
    "Shutdown":
        "ae9e82aa9afd4f3416f4f7d3de691928cff3fb72a7c58da661e7848303fa8cbf",
    "WorkerError":
        "a38ce37ca66eb96cba32a1555fb4beacf0c4c5097ab1e062be18e967616bfd41",
    "WorkerResult":
        "5cf5fa38eedf037b2b6c15644bf151b7870b547617a20bbaab36aa85f0094d64",
    "ObservationChunk":
        "8939ba76a92ba684735819d188ecb47f5d1ddb98a321010e6c23afaee260ddd4",
}

#: One batch frame holding both sample variants of every type, in id order.
GOLDEN_MIXED_BATCH = (
    "fed590741cc1dab8ef2d6929047c604588f8ccdb543e78b2c8762cb2ff53fa66")


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _mixed_batch() -> bytes:
    return encode_batch([sample(cls, variant) for cls in WIRE_TYPES
                         for variant in (0, 1)])


def test_golden_hashes_belong_to_this_wire_version():
    assert WIRE_VERSION == GOLDEN_WIRE_VERSION


def test_every_registered_type_is_pinned():
    assert sorted(GOLDEN_FRAMES) == sorted(cls.__name__ for cls in WIRE_TYPES)


@EVERY_TYPE
def test_sample_frame_matches_its_golden_hash(cls):
    assert _digest(encode(sample(cls))) == GOLDEN_FRAMES[cls.__name__], (
        f"the binary layout of {cls.__name__} changed: bump WIRE_VERSION")


def test_mixed_batch_matches_its_golden_hash():
    assert _digest(_mixed_batch()) == GOLDEN_MIXED_BATCH, (
        "the batch frame layout changed: bump WIRE_VERSION")


if __name__ == "__main__":  # regenerate after an intended layout change
    for wire_type in WIRE_TYPES:
        print(f'    "{wire_type.__name__}":\n'
              f'        "{_digest(encode(sample(wire_type)))}",')
    print("GOLDEN_MIXED_BATCH", _digest(_mixed_batch()))

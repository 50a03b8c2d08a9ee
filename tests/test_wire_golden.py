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
GOLDEN_WIRE_VERSION = 6

GOLDEN_FRAMES = {
    "ReadResult":
        "67016b94304c8dbdd9a469c3bdf1f2ff648c480ffd117441e2d62969b59cd2ed",
    "VectorPutRequest":
        "0f70a1dbe1accbbd0de86e50a2477eb5911dcc99c435c8aeafb21def2972c13e",
    "VectorPutReply":
        "322386d7f4813bf32de3bb2cf7ae65741b2197826d5ebe516eec7b35f496e564",
    "RotCoordinatorRequest":
        "232bc6812f92ad0f22a00f71856350d931ac8229b7f30bc6b402edc53b2dc3d9",
    "RotSnapshotReply":
        "d980e0a184d438c4b4a0a213e54d7efccbfb9af8e215a7fbe4a60e57852b74ee",
    "RotProxyRead":
        "2af6b779c20c51d4e66c293c3b53a9d28dacdc525b344eb78f0b62590b0129a9",
    "RotReadRequest":
        "51b66ccfb86c6be3247ab9e846f76b52b3197efaf4be5c7c901faadb26ed77a4",
    "RotValueReply":
        "196e0537bab347ed83cfc5e2deb0248600d0fe94a82e3f0aabb83bb636cb443b",
    "RemoteHeartbeat":
        "cffa9ef9a8b8b67d28ae05e2eda6cfa7bb0e1681d2dc9e4c05ffe4e9a8bd0eb4",
    "StabilizationMessage":
        "06613ab5954745c0faf917ed3d8f848953bbb5addd79a5d172c0e23a1050496a",
    "ReplicateUpdate":
        "4b3ee73067f3496413c1f4f13158257ac88cd3cdef2a3c5e43140d0255342993",
    "OneRoundReadRequest":
        "2ea0aba479d7a9f2bde822e31aaa84db9c3a22e6e75c249bc6d8effc250c8246",
    "OneRoundReadReply":
        "f70cf4510cf4eb9c586dceef1932e3013e9e109a837054797fbcfea62f318d22",
    "CcloPutRequest":
        "3be1366665aefed074aea0d66e4f069800456778974b845006bb97141995a218",
    "CcloPutReply":
        "486d74feb4538dbf16e7cdf29901736ab67c5a2d25d37d49ce6877cb4cbcfcae",
    "ReadersCheckRequest":
        "60a55e7652c4326e0c3d667d50cf0aa4f9042682061c53c9fef49f8a1fa9c5ab",
    "ReadersCheckReply":
        "dce1ba00e2c6626a75c43184f30fbca78b7487c7c098643ed0383acff2093ac5",
    "CcloReplicateUpdate":
        "a649380aa951a0b3b311703f135a10c2bbe4e98dbaf0e6bab94f7e9db8e2546e",
    "ServerAddr":
        "ac6f15e7d31d52994bcc57feffcb1fa9acdb9e605670ca8eb3ce403cb846289b",
    "ClientAddr":
        "ee2d9549b82b4520e50d993f752735272a53b6e7d40cabe165b609cdb51ed425",
    "Envelope":
        "29663eae37480fe57b8f0fcfe3d1954d6b37cb6c8b34123cd019c099e5b0804b",
    "RecordedPut":
        "d1fa8bd39c6ed181e672c518ea13b0d58511db3ee5abd44b6ce3ee0f5666cbb1",
    "RecordedRead":
        "586431f5f08bd1ce290c2a1ade6a2dfa823314bcfee1f8f0004b5d1cfb140fe8",
    "RecordedRot":
        "541a9b292f268f448a1a4c37342423a3c779c125434ff7d91549083eb1a64410",
    "OverheadCounters":
        "ab2cb25c8a7b697333ab238c12e643a789cdaeb923556d024e98d6cfa7be3eeb",
    "TraceEvent":
        "fed64f952197010bba43e1564f3aceb0daf6a0faf570e11f95cf4e7d20499d97",
    "WorkerHello":
        "55300607676188a6e77bc3c5e78a72a49855c815fb1129fab7ebae94824b730a",
    "PeerEntry":
        "902c6dcb81a2d896a190900c46c9423db0bb9f981bd18d4dcdb1f940068354d3",
    "PeerTable":
        "b45832616aab4bd949d2ad814b8dc38b73a0e4413a86085b8227b7e9cb9670d4",
    "WorkerReady":
        "87e8d464244334abaaf20de6a0d4c4523152fc827d7e42661f8e7bfe08ea90cc",
    "StartRun":
        "81cc55702d840e90d4953f718a7f8d0cadc4a92ccd7722f506afde3409183379",
    "Shutdown":
        "7d01b5934c5e438641309a7ff78f21f010052f1c1a1d7908dbcb87b9d0b3fba6",
    "WorkerError":
        "57df93d4af35894b0c53c3ee5f02f598596347532e422188d96b49335c71302e",
    "WorkerResult":
        "13d4d44b4bfd25b1d1b0b1d3c2e2646398ee25ae6758c3849256f710e3fcea3c",
    "ObservationChunk":
        "770809d736285830c2cde06f80b88781fbeb5ff1a2cd27620486bdaf08d8a1b8",
}

#: One batch frame holding both sample variants of every type, in id order.
GOLDEN_MIXED_BATCH = (
    "edcdf31597e1652e2e4412cb861f523ee2881646ee9f1c60d5bd6fd2344afb3f")


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

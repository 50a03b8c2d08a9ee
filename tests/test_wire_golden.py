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

from repro.wire.codec import WIRE_VERSION, encode
from wire_support import EVERY_TYPE, WIRE_TYPES, batch_of, sample

#: The wire version the hashes below were generated for.
GOLDEN_WIRE_VERSION = 8

GOLDEN_FRAMES = {
    "ReadResult":
        "eae5f1c53c230c47aa390af73d2690dfc6ddd8a44882ad18da4e27b631e261d3",
    "VectorPutRequest":
        "d78ea8c20d2aa23e4b71450154ef09ec4accb4797af1180738469aa659b485d8",
    "VectorPutReply":
        "a1b50ab06e5092b3eb634d26db903f1be7af044510b29add881815acb5c4f04e",
    "RotCoordinatorRequest":
        "baba6e8b56815aa94a419ea4ec72ca3190defcd7a3fbcb5b31a0582dfac30ca9",
    "RotSnapshotReply":
        "1121c8fec3f9cbcd8498bfbe39dc58add1b8fcc83e30889f13470506166859bb",
    "RotProxyRead":
        "a896ca9efd885fc9890741440ee3b0793558e6d432decf38cfd76a365e58de7c",
    "RotReadRequest":
        "5eaf5580da6939ba9c5d34a2efa4412a704b3fa35b581a2d29507f91652392fd",
    "RotValueReply":
        "c8c0a91ef7cb05870af234b6185398f368154c7a37e1b64ba8f010436a76a0d2",
    "RemoteHeartbeat":
        "181ed30680336b4529c1e8c594e31865a0880dffc16eb30d7801c02c55c5e907",
    "StabilizationMessage":
        "d04b69b4b5da855a3639c345ef0a8424a6303689ac74a1618fe359edd12215f6",
    "ReplicateUpdate":
        "b163c5a3c2d7b07fd6d63e2e0df26005c7a9529e7629c7d159dc4349057fd6f3",
    "OneRoundReadRequest":
        "4a1bf3023b3a82bb68ca098dc14a3f2fb60e920e0b45d48f1ca8d7b59075acef",
    "OneRoundReadReply":
        "7f8d636005a371907d72b2242f4b9cf03a7f03e5689d9d4cb6c6b64af0345d4b",
    "CcloPutRequest":
        "c0adc5a5703de4113edfb15275d7e287ec279e5efd5db6d5672b51526a0da933",
    "CcloPutReply":
        "3f26593b8d2c4de39cbd71c21d251c519e1f95e99e90bf759f9ddacbc122e226",
    "ReadersCheckRequest":
        "6242b3d67a0bfc77593600e4a992e828d21b7aae2da6b7b8870ec430b8211c06",
    "ReadersCheckReply":
        "ffd604414bc7597211f3ea85b82180a70d3aa342e45c2789176545bd52aee19f",
    "CcloReplicateUpdate":
        "f4beb945053209f9419b2dc0c6eb45610d92240bc14439071491ff22ef19290b",
    "ServerAddr":
        "932ccb3acbb36c7da4fc626af91639cfb5ca6f0ab18940f8070afa75b42fa537",
    "ClientAddr":
        "6d1d04a40dd93c35229710e352352349cc9660d81a1bebc9aa35b653df72bbf8",
    "Envelope":
        "c54f96fd293e8195231dbc2184e89035642ea546d40cef2d73de2897fa1c54cd",
    "RecordedPut":
        "a2736a264fb069f1d503170344bf0e4d6c284d3c11b27c3027b9e227a8461d82",
    "RecordedRead":
        "fb7ce8122d6ed697fd72331c94f0bcf9e641f446bc9842f2003945cb316b5e85",
    "RecordedRot":
        "6a3277518075ab723a4b35045d8bda7764bee559f6fc24557a620beaccd52cc6",
    "OverheadCounters":
        "a65c755e7c6c607d1344472719e55abde56168c0b9a436a182212644f26de78a",
    "TraceEvent":
        "d02710fd8d4879c7dbfa4ad017d1284fe14186bd8925b610e60f7680b405c389",
    "WorkerReady":
        "c0810909036a51448d9b22ce2b969529283b42d2dc2a3b5160ffaa0d5a1335b1",
    "StartRun":
        "f544bf9acbf301bf26a66323bd90b423e8e8865a1e148ec9178b4dff96ca9311",
    "Shutdown":
        "883593942d17fbe3842d5ab454ccccc2416b70b31cb4fd6f0486b6606984924a",
    "WorkerError":
        "2ec7aaa6cf06c305565a2ae0aaa2f5c54e21a2ed759600339f328e2903826cfb",
    "WorkerResult":
        "1b6c6fc6559afda2adeb7ef9a9dbb36a7eac32049d9fd929d50ffbe3149e11a6",
    "ObservationChunk":
        "9578d6ab0ea8131e50d5124cd7efd0b85eb666de1a2e5604fb2593fdfcbe39ee",
}

#: One batch frame whose rows carry both sample variants of every type, in
#: id order.
GOLDEN_MIXED_BATCH = (
    "049b265146c691f0da33133468bee6d48fc8fb0c3fa36a9320195330060d5931")


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _mixed_batch() -> bytes:
    return batch_of([sample(cls, variant) for cls in WIRE_TYPES
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

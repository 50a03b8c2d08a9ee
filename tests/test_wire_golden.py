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
GOLDEN_WIRE_VERSION = 7

GOLDEN_FRAMES = {
    "ReadResult":
        "45964eeab687fa9728fdb7f657d30738007f5abae689ca1285277675996a1256",
    "VectorPutRequest":
        "5d1bc3df0e8aa02d87f7755ebcc2e3de5bd4acbb5478dc6e1e81a6dc9e840a1d",
    "VectorPutReply":
        "f61a17ec7f66960a660a968d00a35bf61535cb357d97d0a650e58cc59454fc69",
    "RotCoordinatorRequest":
        "57136249974604b2ae7014581ca0865aee4743ccd1a6bf8b8598aae116a550ed",
    "RotSnapshotReply":
        "9e38026b148bdc595781884effe457169ac8c9ee41e5f7e15e2ec70a273f33f3",
    "RotProxyRead":
        "ac83ccad9c76216abbca6a2c5e9ba189cba7ec2ebc618bc46c1be16f5dfb7763",
    "RotReadRequest":
        "249670cf5cc60d9fbceca1e0b638d54268e6457020d948d9c48ea40dcc6c3711",
    "RotValueReply":
        "842200e68f30ef29ab3a427fbef56efc70ccd88c0fe79fbd9b6d5bd31fd4ec70",
    "RemoteHeartbeat":
        "63b07e64a2bb710f833772769ae1aa20e435966947ce73a5c70ca268632c6cd9",
    "StabilizationMessage":
        "296c090c7c1f57a349323fefb775b76f6eefb7f9f09735d21ce2b5f0f2377f87",
    "ReplicateUpdate":
        "d94d769612cb3fb301ec623a3c48dfa13677775da762236d44020b7ca6e32b6f",
    "OneRoundReadRequest":
        "93bcd53ec6a6142c5f48d7517aad0bb71238a66ffe1bb29d787a571c89a51ba6",
    "OneRoundReadReply":
        "a6f76dd0ca6b873fcdfff240ded4980b3046da87e3337dc935749432937d5b2d",
    "CcloPutRequest":
        "b97ecebb5c13be4bb538ca2fd9b7cfeb39bfec63f1c6bcd84ccd3759031acea8",
    "CcloPutReply":
        "ae108a162f754bead563019185aa130580edefe98cc27a856188597c44e3d968",
    "ReadersCheckRequest":
        "728e844f44c7fdf41d8676383b97beadc4b739eec0e5bc268cf102a2d599532b",
    "ReadersCheckReply":
        "93653bd5b8ddf1a996df0ab2814a9d17d5060d4e932c460d157a1acda2ba922a",
    "CcloReplicateUpdate":
        "9b65fbfebf64926bce91fcd3620fcab06641af67061da9c4a5635d9647e26077",
    "ServerAddr":
        "af331c5136f2591953d5d9694c0ef9742bac567576cb57c550b0d604c142c2b4",
    "ClientAddr":
        "58408ba6a315a89492a77e8d6f0659d4c81a2ab092a5b1f636d5e2afd6ca3df8",
    "Envelope":
        "a7e40b46d307e245828ee9b72b931138497e4c1914fe3ffcf5c95540b8946061",
    "RecordedPut":
        "96e775ccde5e0829d0edb0b3f7908f227e6138d90189958d0eb7e3589d48ea53",
    "RecordedRead":
        "244cee391bf7c54400d21f1643c11651885dc329e76b51c8b0447317476f249b",
    "RecordedRot":
        "b3f39a2dc5d0148ed525150038daefb23d7f09fb2911e2ddb01e241853271b70",
    "OverheadCounters":
        "fe260cc2f9fef749ff87bd0ccb9e62fccc5677a8d2307ad88913f64feca2b62f",
    "TraceEvent":
        "a13b8e44c29082162b591fcfe400c5feca164e39d50341579dfdaf4d3f80667b",
    "WorkerReady":
        "2b7294a8f1981bf66a0fe0210a2f72d042067cc83ab7547da4f5578d6a48200d",
    "StartRun":
        "7984bb35928b3e3caba8a5fafb1e6cbaa38a02b84b01a5a99c74f097614a1bc7",
    "Shutdown":
        "a349de0058678104ab6a78624387891652eea3ed76210c78b3ca4a841fe10964",
    "WorkerError":
        "ca39871cc16752e6cfe40974247d6c1f08bd253c612eebfe43b95d8539db4ce8",
    "WorkerResult":
        "8b663b939f21ca63152860f51db280824805ab87413628d47bed51074e1c0bd3",
    "ObservationChunk":
        "9723f4c5598053afd3ec0eeece035ee9c26afc5a7a59ef7a402c6696fff30b69",
}

#: One batch frame holding both sample variants of every type, in id order.
GOLDEN_MIXED_BATCH = (
    "4ac83cbafea39fb25f0fc8233f422f123831dafc1cbbfeeaf6735c9d272e5a2c")


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

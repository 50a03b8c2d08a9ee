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
GOLDEN_WIRE_VERSION = 5

GOLDEN_FRAMES = {
    "ReadResult":
        "047443a292548cda12ef903bca95d404217ad1611eb4b2adc5f9b07b94a9f4ba",
    "VectorPutRequest":
        "84748e57a31ee737c60eeff9f0385f29bfa5826ef9f4863af7ccc090093503ad",
    "VectorPutReply":
        "e52e579830156d227644009d4930c9f06f02ae8b015d18375208009129b85c72",
    "RotCoordinatorRequest":
        "2f6b119c70d70f63ab08ca6b9a827b1fa43e784676b97e5cf6fe4c534cfe3b38",
    "RotSnapshotReply":
        "9dfa48bdf56ff6831b38e5d3f8a4e51a95318dbce515e5a5a026f08dd38768d3",
    "RotProxyRead":
        "06907b46bb407659fa5ef3383f5fc8645e018a2abde6013ace4bf023e60c95c6",
    "RotReadRequest":
        "6fd0a1fbbb4babb1eef53ba6cd3776844f8db8e2af655926aaedf405abd7959d",
    "RotValueReply":
        "447f9292b4b674fb5e15c0c73faa9e66a7b0c2452459ef10670bd98ba037bd58",
    "RemoteHeartbeat":
        "e6b69e7014440593cba17ab8dde5f71e30c5656eb58a09edfa2882e1702e0287",
    "StabilizationMessage":
        "2fe50be9e40dee36761e177f99c8f08d49e3da77ff62ee1072b22ba12e437b83",
    "ReplicateUpdate":
        "3c26283dae4676902e8a6d88a5b2a3a6ba009e41610a4b472f5d09555945a981",
    "OneRoundReadRequest":
        "27d4cd2fa78a5c8fa2204c15d3909ed6b258eb5bf76269c76e2405f5f0249412",
    "OneRoundReadReply":
        "30876b57ef0e2c4d37f9d1554ef8b966917244ee5d86628a394cf0d1493dc511",
    "CcloPutRequest":
        "32b2c1f0bbd354fb43d73d15e491269fe50647944f2bb6548adfc1720591e5b8",
    "CcloPutReply":
        "bc5bcbf380aad6fef8f02911f72a82f28676476fa8399967a5700d49ee124289",
    "ReadersCheckRequest":
        "dc2bfacf05584c8fd0f7db44c3b924b486bf65a9f2513b9d8d609b50650b48ed",
    "ReadersCheckReply":
        "ef172409d4420b0fd67838511e9a9d2976085bee0374902ce5c8305457f9a0e1",
    "CcloReplicateUpdate":
        "0b2a0e546b132ebd91c9ce9c12a1e5c270b583ac572f59ba13150edfad9a5179",
    "ServerAddr":
        "9a5fbdccb34aeb705b6db446ddd14450920829bae7a5e18dae4a0c92eb74ef1b",
    "ClientAddr":
        "5c5f4d35f5fe7c7ec544ea2fffcca484903ed0c4339cdf38b2b733876000d670",
    "Envelope":
        "96ab4de18dc9a634691a5943be4dd30abe344e60d3c76fbd646b374d074bf1fb",
    "RecordedPut":
        "d845d626a8a4758e453573a0ae26a5220aa4bac9239480c294898c41467673f2",
    "RecordedRead":
        "0af2d0554adff6f155ecfb95ead33010fb9790ddaf9ad86d991771fa84b51172",
    "RecordedRot":
        "459c032c6e3da3428e25c660a7ac6c6cbb8124ca67a1550104a6fabaeb557210",
    "OverheadCounters":
        "782316de016239bfbe6f546f31ba90af3195987dcc4b9e5c6ad3b031cdd65c9e",
    "TraceEvent":
        "bcdd53a20fa341fb71bb3780b40cb6c25845437fd3099584ed2b57aac0b781b1",
    "WorkerHello":
        "9b371bb21382bc3e9f5fb85f37b25b0d070360d6afc879c7bec02888593e3edb",
    "PeerEntry":
        "8d6cc8d655b002430481655b00ddcbb9bc1ab6f44a6bc48acb5cba30bb1efdfa",
    "PeerTable":
        "74f818aa57c74c4c5c54e7a59bdf083d4fe7841f772a0ca674eefb4e1e24d474",
    "WorkerReady":
        "dc070eccd21b745c5da7af9bf82518111b840f3efd41378c0684325fdd2a7a88",
    "StartRun":
        "37454892677e90f84ecdb1d8708beea530e7810ec9fd78a9b08301bb9bddccd7",
    "Shutdown":
        "52ceaea149c4904dedad806f5e38886aa625ed54cea2176ba8efae79e84eba82",
    "WorkerError":
        "1050a2017b23d947a01e8fab0068652e8fbf9ccda76a50211f99dec456faa1ef",
    "WorkerResult":
        "90dec952d05f08144baeba0ab789e700b1ac001926ac981eb6a6bae36e6d0820",
    "ObservationChunk":
        "cf256bba17da75b0715bef0f2964265d892c87ac5a0002fa82bc7e2bf5352432",
}

#: One batch frame holding both sample variants of every type, in id order.
GOLDEN_MIXED_BATCH = (
    "cee4045be9b1b5fe01ff383324a485b9042cd41ea98304753499f007bb9ab789")


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

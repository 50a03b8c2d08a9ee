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
GOLDEN_WIRE_VERSION = 9

GOLDEN_FRAMES = {
    "ReadResult":
        "c1469f42fcc0edebaac24625944028290b640063272ea288878448ee17d7e660",
    "VectorPutRequest":
        "e8566d5bc358846525766dbeb9ddca3b681150fdd321604866e564828b3b8732",
    "VectorPutReply":
        "5e7d5b8f4f3914ef2cd58dc66f33f1bc5c0f94c02cc730f576fee538003644e4",
    "RotCoordinatorRequest":
        "992c3d42eb2401ace3c5f3f83d2296c199c733ccd1b92452e1846de3c32bc246",
    "RotSnapshotReply":
        "add31b561d749f146068a925c5f4910dc8bad6f6361425a935996b6f3c79236b",
    "RotProxyRead":
        "2f8c0240cdedd9ef4fda2e9470ebc490955815af0f95b516ff272a6b83e05b14",
    "RotReadRequest":
        "2ae968ce438de0b9afdbc6c6787642c909b3bcae6ebbeb6d5e1a65daea163c6c",
    "RotValueReply":
        "1ee447fbdfc5c58ac67c1a96a4edd87979322eef11ef7450f222ef7e3b40dbb9",
    "RemoteHeartbeat":
        "0aa25f94d71b287ffdc43a6c7451e922bf95e30b4399b2b77e0121efbac61642",
    "StabilizationMessage":
        "cbb289fa43099645fd385d20f02c16b0e0b13a45452eaa6e7f8b8cf74e25289e",
    "ReplicateUpdate":
        "f685d35713660f7709282765e913f69925f333146a963a2776dad1f157a0c108",
    "OneRoundReadRequest":
        "42cc357d0d0dcbefedbeef99b4ab5e8e434b1a1b69fa27f6b5ce7f6a10c69d7b",
    "OneRoundReadReply":
        "31bbac69a9014eeb42d4f3a139b3f230e78bf57ce6631987429e3f8d9255189b",
    "CcloPutRequest":
        "6bd74ab3df10bd9ead1466f4d5efc8adf6f2f549dcbbe704c90f307c50444a6b",
    "CcloPutReply":
        "925d39ab1421dfdc62c5694f3cc4cbb0138842056ddaae160f7046f39789ad0f",
    "ReadersCheckRequest":
        "30e076a1309e19de9d39acb5c2ffe686e2bdc8a059612e488fe8c853e0d37e00",
    "ReadersCheckReply":
        "4cf136e4280323b5a8c654bbc043a5b60acfa07e67412164113ab0fe8efb3977",
    "CcloReplicateUpdate":
        "335da4f6a5a7e320115bb1fb9d2274833d57fb30bf2d00e9c2fa394719add9a0",
    "ServerAddr":
        "26477689e15557d018c9e7d1316dc37f4709a5862704cacb97d05b8172b91c63",
    "ClientAddr":
        "c053ef04d31ce5f557fac6d706909bfb842641310c67496ee6174496f34b3679",
    "Envelope":
        "79dc256d510ffa5304f529724b7ca60fbf28d71a394bc1665868b3f2169d5482",
    "RecordedPut":
        "0f4005375429803d302cac5062a31c58af00c2dc313989f8651cee61fc4d1a01",
    "RecordedRead":
        "78be659a49ce1e2fa1c8e6cf5a3a444cea5f9985deb049d406a03a81c95bd42b",
    "RecordedRot":
        "8c1490304fb4945ef1f7dcc88e9e5f8e0b0105411e59a15c53f16a8ecf3c911e",
    "OverheadCounters":
        "fd8e0cfaffc2cf5b5295bff8e28a93b4fa690c4e7cd4677304b82e2606896968",
    "TraceEvent":
        "213ddd985627eb0bb71a5bd6fdff8a3097b9cc6d4b3c5903cf7dd0d5c97c139f",
    "WorkerReady":
        "eda5295017a4e3501ad48f01c47a1c56761bb942af63bf4076e9e0e0f9d13f0b",
    "StartRun":
        "bcad05ef1722db58e344bb3c55cba82461dd9124cb42d563e19bb8c1b761bfbf",
    "Shutdown":
        "1e34f148b3af5b9d2e96b2cd2fe8f27f7410dda3bd1d4adc8209d115534fc234",
    "WorkerError":
        "048a2564b83eaa7a9746e4df44806e4cc2b2f6ee8e787cfe8fd3f7982488a733",
    "WorkerResult":
        "67b7383578da568d670b42977bb4efdff1f2b4faa38bf9776b173e761afa5b47",
    "ObservationChunk":
        "cc9d42ff3448e42e1a2bdc7a796a07762990df4fd1aafe9a3215118c9d713529",
}

#: One batch frame whose rows carry both sample variants of every type, in
#: id order.
GOLDEN_MIXED_BATCH = (
    "5ba8e2d7ea166d9fc0c8bdf79154e814fd0ff5ebffff6f22958b5cd97632d5d6")


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

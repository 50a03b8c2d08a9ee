"""The vector client's fold-once ROT completion against its definition.

``VectorClientKernel`` folds a ROT's snapshots, GSSes and read results into
the client's causal context once, when the last value reply arrives;
``tests/vector_client_oracle.py`` keeps the kernel as it was, folding every
reply as it arrived, and *defines* the result.  The test below drives both
with the same PUTs and ROTs — 1½ and 2 rounds, replies in any order, every
reply with its own random snapshot and GSS (so nothing relies on the
coordinator sending one snapshot to all of them), results that found a
version or none — and compares, after every operation, ``gss_seen``,
``local_ts_seen``, ``checker_dependencies()`` and every effect either
emitted.  ``max_examples`` is left to the hypothesis profile (the nightly
one runs ten times the default).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partitioning import HashPartitioner
from repro.core.common.messages import (
    ReadResult,
    RotSnapshotReply,
    RotValueReply,
    VectorPutReply,
)
from repro.core.vector.kernel import VectorClientKernel
from repro.errors import ProtocolError
from repro.workload.generator import Operation
from vector_client_oracle import PerReplyVectorClientKernel

PARTITIONS = 4
#: Two keys per partition, so that ROTs read the same keys again.
KEY_INDEX = st.integers(0, 1)
TIMESTAMP = st.integers(0, 40)
#: Few read timestamps, so that a key is often read again at the same one.
READ_TIMESTAMP = st.none() | st.integers(0, 3)


def key_on(partition, index):
    return HashPartitioner.structured_key(partition, index)


def client_pair(dc_id, num_dcs, two_round, seed):
    """The kernel and its oracle, built alike (the same RNG seed picks the
    same coordinators)."""
    return [cls(client_id=f"client-dc{dc_id}-0", dc_id=dc_id, num_dcs=num_dcs,
                partitioner=HashPartitioner(PARTITIONS),
                rng=random.Random(seed), two_round=two_round)
            for cls in (VectorClientKernel, PerReplyVectorClientKernel)]


def same_effects(kernels, feed):
    """Feed both kernels; their effects must be equal.  Returns them."""
    kernel_effects, oracle_effects = (feed(kernel) for kernel in kernels)
    assert kernel_effects == oracle_effects
    return kernel_effects


@settings(deadline=None)
@given(num_dcs=st.integers(1, 3), two_round=st.booleans(),
       seed=st.integers(0, 2**16), data=st.data())
def test_fold_once_matches_the_per_reply_fold(num_dcs, two_round, seed, data):
    dc_id = data.draw(st.integers(0, num_dcs - 1), label="dc_id")
    kernels = client_pair(dc_id, num_dcs, two_round, seed)
    vector = st.tuples(*[TIMESTAMP] * num_dcs)
    now = 0.0
    for sequence in range(1, data.draw(st.integers(1, 8), label="ops") + 1):
        now += 0.001
        if data.draw(st.booleans(), label="is_put"):
            key = key_on(data.draw(st.integers(0, PARTITIONS - 1)),
                         data.draw(KEY_INDEX))
            operation = Operation("put", (key,), 8)
            same_effects(kernels, lambda k: k.start_operation(
                operation, sequence, now))
            reply = VectorPutReply(key=key, timestamp=data.draw(TIMESTAMP),
                                   gss=data.draw(vector))
            same_effects(kernels, lambda k: k.on_message(reply, now))
        else:
            involved = data.draw(st.lists(
                st.integers(0, PARTITIONS - 1), min_size=1,
                max_size=PARTITIONS, unique=True), label="partitions")
            keys = tuple(key_on(partition, data.draw(KEY_INDEX))
                         for partition in involved)
            operation = Operation("rot", keys, 8)
            (request,) = same_effects(kernels, lambda k: k.start_operation(
                operation, sequence, now))
            rot_id = request.message.rot_id
            if two_round:
                reply = RotSnapshotReply(rot_id=rot_id,
                                         snapshot=data.draw(vector))
                same_effects(kernels, lambda k: k.on_message(reply, now))
            for partition in data.draw(st.permutations(involved),
                                       label="reply order"):
                results = tuple(
                    ReadResult(key, data.draw(READ_TIMESTAMP),
                               data.draw(st.integers(0, num_dcs - 1)), 8)
                    for key in keys
                    if HashPartitioner(PARTITIONS).partition_of(key)
                    == partition)
                reply = RotValueReply(rot_id=rot_id, results=results,
                                      snapshot=data.draw(vector),
                                      gss=data.draw(vector))
                same_effects(kernels, lambda k: k.on_message(reply, now))
        kernel, oracle = kernels
        assert kernel.gss_seen == oracle.gss_seen
        assert kernel.local_ts_seen == oracle.local_ts_seen
        assert kernel.checker_dependencies() == oracle.checker_dependencies()


def test_a_reply_with_vectors_of_the_wrong_width_is_refused():
    kernel, _ = client_pair(0, 2, two_round=False, seed=1)
    (request,) = kernel.start_operation(
        Operation("rot", (key_on(0, 0),), 8), 1, 0.0)
    reply = RotValueReply(rot_id=request.message.rot_id,
                          results=(ReadResult(key_on(0, 0), 3, 0, 8),),
                          snapshot=(5, 5, 5), gss=(1, 1))
    with pytest.raises(ProtocolError, match="entries"):
        kernel.on_message(reply, 0.1)

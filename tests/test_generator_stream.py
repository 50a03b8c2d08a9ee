"""The workload generator's stream, pinned to its definition.

Every simulated result is a function of the operation streams, so
``WorkloadGenerator.next_operation`` must make exactly the draws of its
stdlib spelling — ``rng.random()``, ``rng.sample(range(n), k)``, one
``ZipfianSampler.sample()`` per chosen partition, ``f"{p}:{i}"`` — in that
order.  The generator spells ``random.sample`` out (both its pool and its
set branch) to save the frames; :class:`Reference` below is the spelling it
must match, run on a twin RNG with the same seed.  After 2,000 draws the
operations and ``rng.getstate()`` must be equal.  ``random.sample``'s
selection code is identical from CPython 3.9 to 3.13; a CPython that changes
it fails here, not in a figure.

The zipf formula itself is pinned by digests of its draws, recorded on the
tree before its constants were precomputed.
"""

import hashlib
import random

import pytest

from repro.cluster import partitioning
from repro.cluster.partitioning import HashPartitioner
from repro.workload.generator import Operation, WorkloadGenerator
from repro.workload.parameters import DEFAULT_WORKLOAD
from repro.workload.zipfian import ZipfianSampler

DRAWS = 2000


class Reference:
    """The generator as the stdlib spells it."""

    def __init__(self, parameters, num_partitions, keys_per_partition, rng):
        self.rng = rng
        self.num_partitions = num_partitions
        self.keys_per_partition = keys_per_partition
        self.parameters = parameters
        self.sampler = ZipfianSampler(keys_per_partition, parameters.skew, rng)
        self.offset = 0

    def set_parameters(self, parameters):
        if parameters.skew != self.parameters.skew:
            self.sampler = ZipfianSampler(self.keys_per_partition,
                                          parameters.skew, self.rng)
        self.parameters = parameters

    def rotate_keys(self, offset):
        self.offset = (self.offset + offset) % self.keys_per_partition

    def next_operation(self):
        population = range(self.num_partitions)
        if self.rng.random() < self.parameters.put_probability:
            kind, partitions = "put", self.rng.sample(population, 1)
        else:
            kind = "rot"
            partitions = self.rng.sample(population, self.parameters.rot_size)
        keys = tuple(
            f"{p}:{(self.sampler.sample() + self.offset) % self.keys_per_partition}"
            for p in partitions)
        return Operation(kind, keys, self.parameters.value_size)


def twins(seed, partitions=8, keys_per_partition=1000, **changes):
    parameters = DEFAULT_WORKLOAD.with_changes(**changes)
    generator = WorkloadGenerator(parameters, HashPartitioner(partitions),
                                  keys_per_partition, random.Random(seed))
    reference = Reference(parameters, partitions, keys_per_partition,
                          random.Random(seed))
    return generator, reference


def assert_same_stream(generator, reference, draws=DRAWS):
    assert ([generator.next_operation() for _ in range(draws)]
            == [reference.next_operation() for _ in range(draws)])
    assert generator._rng.getstate() == reference.rng.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7, "client-dc1-3"])
def test_seeds(seed):
    assert_same_stream(*twins(seed))


@pytest.mark.parametrize("write_ratio", [0, 0.05, 0.5, 1])
def test_write_ratios(write_ratio):
    assert_same_stream(*twins(3, write_ratio=write_ratio))


@pytest.mark.parametrize("keys_per_partition", [1, 2, 3, 1000])
@pytest.mark.parametrize("skew", [0, 0.5, 0.99, 1.0, 1.3])
def test_skews_and_key_counts(skew, keys_per_partition):
    assert_same_stream(*twins(f"{skew}/{keys_per_partition}", skew=skew,
                              keys_per_partition=keys_per_partition))


@pytest.mark.parametrize("partitions, rot_size", [
    (4, 1), (4, 4), (8, 1), (8, 4), (8, 6), (8, 8),
    (32, 1), (32, 4), (32, 6), (32, 32),
    (21, 5), (22, 5), (85, 6), (86, 6)])
def test_partitions_and_rot_sizes(partitions, rot_size):
    # 32 partitions take random.sample's set branch at ROT sizes 1 and 4,
    # its pool branch at 6 and 32; 4 and 8 partitions always the pool.  The
    # last four straddle where the branches meet: a pool of up to 21
    # partitions for a ROT of at most 5, of up to 85 for one of 6.
    assert_same_stream(*twins(partitions * 100 + rot_size,
                              partitions=partitions, rot_size=rot_size,
                              write_ratio=0.1))


def test_shifts_mid_stream():
    generator, reference = twins(11, partitions=32, rot_size=4,
                                 write_ratio=0.1)
    shifts = [
        lambda g: g.rotate_keys(17),
        lambda g: g.set_parameters(DEFAULT_WORKLOAD.with_changes(
            rot_size=6, value_size=128)),
        lambda g: g.set_parameters(DEFAULT_WORKLOAD.with_changes(
            rot_size=6, skew=0.5, write_ratio=0.5)),
        lambda g: g.rotate_keys(999),
        lambda g: g.set_parameters(DEFAULT_WORKLOAD.with_changes(
            rot_size=32, skew=0.0)),
        lambda g: g.set_parameters(DEFAULT_WORKLOAD.with_changes(
            rot_size=1, skew=1.0, write_ratio=0.05)),
    ]
    for shift in shifts:
        assert_same_stream(generator, reference, draws=DRAWS // 4)
        shift(generator)
        shift(reference)
    assert_same_stream(generator, reference)


# ------------------------------------------------------------------- zipf
#: sha256 (first 16 hex digits) of ``repr`` of 2,000 draws of
#: ``ZipfianSampler(n, skew, random.Random(f"{n}:{skew}"))``.
ZIPF_DIGESTS = {
    (0.0, 1): "08a1aa07da184f6f", (0.0, 2): "b5dbba20a7d81f0e",
    (0.0, 3): "97255cd65e706294", (0.0, 1000): "5dcf43803fe14bfb",
    (0.5, 1): "08a1aa07da184f6f", (0.5, 2): "9591903b66db02c8",
    (0.5, 3): "d24fb9fd85addc8d", (0.5, 1000): "29d95c7869fa5bb5",
    (0.99, 1): "08a1aa07da184f6f", (0.99, 2): "4a76a38a803d8178",
    (0.99, 3): "3ee285638b7bb91c", (0.99, 1000): "46b96b629562b568",
    (1.0, 1): "08a1aa07da184f6f", (1.0, 2): "c2736546dd09a8f9",
    (1.0, 3): "4350f753894e6eb9", (1.0, 1000): "4024c2190cd42a20",
    (1.3, 1): "08a1aa07da184f6f", (1.3, 2): "10f2fed44c0a4e0c",
    (1.3, 3): "f8b4b803db0267ce", (1.3, 1000): "fb3cf4905ef18e93",
}


@pytest.mark.parametrize("skew, num_items", sorted(ZIPF_DIGESTS))
def test_zipf_draws_are_the_recorded_ones(skew, num_items):
    sampler = ZipfianSampler(num_items, skew,
                             random.Random(f"{num_items}:{skew}"))
    draws = [sampler.sample() for _ in range(DRAWS)]
    assert (hashlib.sha256(repr(draws).encode()).hexdigest()[:16]
            == ZIPF_DIGESTS[(skew, num_items)])


# ------------------------------------------------------------ shared keys
def test_a_structured_key_is_one_object_per_value():
    key = HashPartitioner.structured_key(5, 123)
    assert key == "5:123"
    assert HashPartitioner.structured_key(5, 123) is key
    assert HashPartitioner.structured_key_row(5)[123] is key


def test_generated_keys_are_the_shared_ones():
    generator, _ = twins(5, write_ratio=0.5)
    for _ in range(200):
        for key in generator.next_operation().keys:
            partition, index = map(int, key.split(":"))
            assert HashPartitioner.structured_key(partition, index) is key


def test_a_full_table_hands_out_fresh_equal_strings(monkeypatch):
    shared = HashPartitioner.structured_key(2, 7)
    # Full: the bound is what the table holds now.
    monkeypatch.setattr(partitioning, "MAX_INTERNED_KEYS",
                        partitioning._interned_keys)
    assert HashPartitioner.structured_key(2, 7) is shared
    # An index no workload reaches, so that it is not in the table yet.
    first = HashPartitioner.structured_key(2, 10**12)
    second = HashPartitioner.structured_key(2, 10**12)
    assert first == second == f"2:{10**12}"
    assert first is not second
    assert 10**12 not in HashPartitioner.structured_key_row(2)
    # The generator falls back to the same fresh strings, equal to the
    # reference's.
    generator, reference = twins(9, partitions=4, keys_per_partition=10**7,
                                 skew=0.0)
    assert_same_stream(generator, reference, draws=200)

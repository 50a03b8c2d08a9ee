"""Per-client operation generation.

Each closed-loop client owns a :class:`WorkloadGenerator` seeded independently
so clients issue independent streams.  The generator reproduces the paper's
workload model (Section 5.2):

* with probability derived from the write/read ratio ``w`` the next operation
  is a PUT of one key, otherwise it is a ROT;
* a ROT spans ``p`` partitions chosen uniformly at random and reads exactly
  one key per chosen partition;
* within a partition the key is drawn from a zipfian distribution with
  parameter ``z``;
* values are opaque payloads of ``b`` bytes.

The stream contract: a seed defines the operation stream, and every
simulated result is a function of it.  :meth:`WorkloadGenerator.next_operation`
makes exactly the draws of ::

    if rng.random() < put_probability:
        partitions = rng.sample(range(num_partitions), 1)         # a PUT
    else:
        partitions = rng.sample(range(num_partitions), rot_size)  # a ROT
    keys = [structured_key(p, (zipf.sample() + offset) % keys_per_partition)
            for p in partitions]

in that order, with ``random.sample``'s selection spelled out — its shrinking
pool for small populations, its rejection set for large ones, the same
``randbelow`` draws (the code is identical from CPython 3.9 to 3.13) — so
that an operation costs one Python frame per key, the zipf draw.  Changing a
draw, its order or :class:`~repro.workload.zipfian.ZipfianSampler`'s formula
changes every simulated result; ``tests/test_generator_stream.py`` holds the
generator to the stdlib spelling above.
"""

from __future__ import annotations

import math
import random

from repro.cluster.partitioning import HashPartitioner
from repro.core.common.records import record
from repro.errors import WorkloadError
from repro.workload.parameters import WorkloadParameters
from repro.workload.zipfian import ZipfianSampler


@record
class Operation:
    """One client operation: either a PUT of one key or a ROT over many."""

    kind: str  # "put" or "rot"
    keys: tuple[str, ...]
    value_size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("put", "rot"):
            raise WorkloadError(f"unknown operation kind {self.kind!r}")
        if not self.keys:
            raise WorkloadError("an operation needs at least one key")
        if self.kind == "put" and len(self.keys) != 1:
            raise WorkloadError("a PUT targets exactly one key")

    @property
    def is_put(self) -> bool:
        return self.kind == "put"

    @property
    def is_rot(self) -> bool:
        return self.kind == "rot"


def _sample_pool_limit(count: int) -> int:
    """The largest population ``random.sample`` draws ``count`` items from
    with its shrinking pool; above it, it redraws into a set."""
    limit = 21
    if count > 5:
        limit += 4 ** math.ceil(math.log(count * 3, 4))
    return limit


class WorkloadGenerator:
    """Generates the operation stream for one client."""

    def __init__(self, parameters: WorkloadParameters,
                 partitioner: HashPartitioner,
                 keys_per_partition: int,
                 rng: random.Random) -> None:
        self._partitioner = partitioner
        self._keys_per_partition = keys_per_partition
        self._rng = rng
        self._random = rng.random
        self._randbelow = rng._randbelow
        self._partitions = list(range(partitioner.num_partitions))
        self._key_rows = [HashPartitioner.structured_key_row(partition)
                          for partition in self._partitions]
        self._key_sampler: ZipfianSampler | None = None
        self._key_offset = 0
        self.generated_puts = 0
        self.generated_rots = 0
        self.set_parameters(parameters)

    # ---------------------------------------------------------- phase changes
    def set_parameters(self, parameters: WorkloadParameters) -> None:
        """Switch to a new workload point mid-run (scenario-driven shift).

        The zipfian sampler is rebuilt only when the skew changes, so shifts
        of the write ratio or value size do not perturb the key-draw stream.
        """
        if parameters.rot_size > self._partitioner.num_partitions:
            raise WorkloadError(
                f"ROT size {parameters.rot_size} exceeds the number of "
                f"partitions {self._partitioner.num_partitions}")
        if (self._key_sampler is None
                or parameters.skew != self.parameters.skew):
            self._key_sampler = ZipfianSampler(self._keys_per_partition,
                                               parameters.skew, self._rng)
        self.parameters = parameters
        self._put_probability = parameters.put_probability
        self._rot_size = parameters.rot_size
        self._value_size = parameters.value_size
        self._pool_sample = (len(self._partitions)
                             <= _sample_pool_limit(parameters.rot_size))

    def rotate_keys(self, offset: int) -> None:
        """Shift the key popularity mapping by ``offset`` positions.

        Models hot-key churn: the zipfian ranks stay the same but map to
        different keys, so previously cold keys become the new hot set.
        """
        self._key_offset = (self._key_offset + offset) % self._keys_per_partition

    # ------------------------------------------------------------------ keys
    def _key_on_partition(self, partition: int) -> str:
        index = self._key_sampler.sample()
        if self._key_offset:
            index = (index + self._key_offset) % self._keys_per_partition
        return HashPartitioner.structured_key(partition, index)

    # ------------------------------------------------------------- operations
    def next_operation(self) -> Operation:
        """Draw the next operation for the owning client (see the module
        docstring for the draws it makes)."""
        randbelow = self._randbelow
        if self._random() < self._put_probability:
            self.generated_puts += 1
            kind = "put"
            # ``sample(range(n), 1)``: both of its branches draw once.
            partitions = (randbelow(len(self._partitions)),)
        else:
            self.generated_rots += 1
            kind = "rot"
            partitions = []
            if self._pool_sample:
                # The pool: the i-th draw picks among the n - i partitions
                # not chosen yet, the last of which fills the vacancy.
                pool = self._partitions[:]
                left = len(pool)
                for _ in range(self._rot_size):
                    chosen = randbelow(left)
                    left -= 1
                    partitions.append(pool[chosen])
                    pool[chosen] = pool[left]
            else:
                # The set: a partition drawn again is drawn anew.
                total = len(self._partitions)
                for _ in range(self._rot_size):
                    chosen = randbelow(total)
                    while chosen in partitions:
                        chosen = randbelow(total)
                    partitions.append(chosen)
        draw = self._key_sampler.sample
        offset = self._key_offset
        rows = self._key_rows
        keys = []
        for partition in partitions:
            index = draw()
            if offset:
                index = (index + offset) % self._keys_per_partition
            key = rows[partition].get(index)
            if key is None:
                key = HashPartitioner.structured_key(partition, index)
            keys.append(key)
        return Operation(kind, tuple(keys), self._value_size)


__all__ = ["Operation", "WorkloadGenerator"]

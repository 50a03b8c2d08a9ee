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
"""

from __future__ import annotations

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


class WorkloadGenerator:
    """Generates the operation stream for one client."""

    def __init__(self, parameters: WorkloadParameters,
                 partitioner: HashPartitioner,
                 keys_per_partition: int,
                 rng: random.Random) -> None:
        if parameters.rot_size > partitioner.num_partitions:
            raise WorkloadError(
                f"ROT size {parameters.rot_size} exceeds the number of "
                f"partitions {partitioner.num_partitions}")
        self.parameters = parameters
        self._partitioner = partitioner
        self._keys_per_partition = keys_per_partition
        self._rng = rng
        self._key_sampler = ZipfianSampler(keys_per_partition, parameters.skew, rng)
        self._put_probability = parameters.put_probability
        self._key_offset = 0
        self.generated_puts = 0
        self.generated_rots = 0

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
        if parameters.skew != self.parameters.skew:
            self._key_sampler = ZipfianSampler(self._keys_per_partition,
                                               parameters.skew, self._rng)
        self.parameters = parameters
        self._put_probability = parameters.put_probability

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

    def _choose_partitions(self, count: int) -> list[int]:
        return self._rng.sample(range(self._partitioner.num_partitions), count)

    # ------------------------------------------------------------- operations
    def next_operation(self) -> Operation:
        """Draw the next operation for the owning client."""
        if self._rng.random() < self._put_probability:
            self.generated_puts += 1
            partition = self._choose_partitions(1)[0]
            return Operation(kind="put",
                             keys=(self._key_on_partition(partition),),
                             value_size=self.parameters.value_size)
        self.generated_rots += 1
        partitions = self._choose_partitions(self.parameters.rot_size)
        keys = tuple(self._key_on_partition(partition) for partition in partitions)
        return Operation(kind="rot", keys=keys,
                         value_size=self.parameters.value_size)

    def preload_versions(self, partition: int, count: int) -> list[str]:
        """Keys to preload on ``partition`` before the run starts."""
        limit = min(count, self._keys_per_partition)
        return [HashPartitioner.structured_key(partition, index)
                for index in range(limit)]

    @property
    def put_fraction_generated(self) -> float:
        """Observed fraction of PUTs among generated operations (diagnostics)."""
        total = self.generated_puts + self.generated_rots
        if total == 0:
            return 0.0
        return self.generated_puts / total


__all__ = ["Operation", "WorkloadGenerator"]

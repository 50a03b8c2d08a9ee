"""CPU cost model for simulated servers.

The paper's central claim is about *resource usage*: the readers check that
COPS-SNOW (CC-LO) performs on every PUT consumes CPU cycles and network
bandwidth that grow with the number of clients, and at non-trivial load that
extra work translates into queueing delays for every operation, including the
ROTs the design was meant to favour.

To reproduce that dynamic the simulator charges every message handled by a
server an explicit CPU service time.  The cost model below decomposes the
service time into a fixed per-message cost plus per-key, per-byte and
per-ROT-id components, mirroring the marshalling/unmarshalling and list
processing work the paper attributes to each protocol.

The default constants are calibrated so that an 8-partition cluster saturates
in the hundreds of Kops/s, the same order of magnitude as the paper's
32-partition cluster; the absolute values are not meant to match the paper's
hardware, only to put the crossover points in a comparable regime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks.units import microseconds
from repro.core.common.messages import (
    CcloPutRequest,
    CcloReplicateUpdate,
    OneRoundReadRequest,
    ReadersCheckReply,
    ReadersCheckRequest,
    RemoteHeartbeat,
    ReplicateUpdate,
    RotCoordinatorRequest,
    RotProxyRead,
    RotReadRequest,
    StabilizationMessage,
    VectorPutRequest,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CostModel:
    """CPU service-time parameters (all in microseconds unless noted).

    Attributes
    ----------
    base_message_us:
        Fixed cost of receiving, unmarshalling and dispatching any message.
    read_key_us:
        Cost of looking up one key in the version chain and preparing the
        response value.
    put_key_us:
        Cost of installing one new version (allocation, index update).
    coordinator_us:
        Cost of computing a snapshot vector at the ROT coordinator.
    per_byte_us:
        Marshalling/unmarshalling cost per payload byte (applies to values).
    per_dependency_us:
        Cost of processing one entry of a dependency list (CC-LO PUTs and
        replication messages).
    per_rot_id_us:
        Cost of recording, merging or scanning one ROT identifier during the
        readers check (CC-LO) or when filtering old readers on a read.
    readers_check_request_us:
        Fixed cost of issuing or serving one readers-check round-trip leg.
    stabilization_us:
        Cost of processing one stabilization (GSS exchange) message.
    replication_us:
        Fixed cost of applying one replicated update (on top of per-byte and
        per-dependency components).
    client_overhead_us:
        CPU time charged at the client for issuing/completing an operation.
        Clients are not the bottleneck in the paper, so this is small.
    """

    base_message_us: float = 6.0
    read_key_us: float = 4.0
    put_key_us: float = 7.0
    coordinator_us: float = 3.0
    per_byte_us: float = 0.002
    per_dependency_us: float = 0.35
    per_rot_id_us: float = 0.08
    readers_check_request_us: float = 4.0
    stabilization_us: float = 2.0
    replication_us: float = 5.0
    client_overhead_us: float = 1.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigurationError(f"cost parameter {name} must be >= 0, got {value}")

    def scaled(self, factor: float) -> "CostModel":
        """Return a cost model with every parameter multiplied by ``factor``.

        Scaling costs up makes simulated servers proportionally slower, which
        moves the saturation point to lower op counts.  The benchmark
        configuration uses this to keep full load sweeps affordable in pure
        Python while preserving every qualitative relationship between the
        protocols (the relative costs are unchanged).
        """
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        return CostModel(**{name: value * factor
                            for name, value in self.__dict__.items()})

    # Helpers return simulated seconds -------------------------------------
    def message_cost(self) -> float:
        """Fixed cost of handling a message."""
        return microseconds(self.base_message_us)

    def read_cost(self, num_keys: int, value_bytes: int) -> float:
        """Cost of serving a read of ``num_keys`` keys of ``value_bytes`` each."""
        return microseconds(self.read_key_us * num_keys
                            + self.per_byte_us * value_bytes * num_keys)

    def put_cost(self, value_bytes: int) -> float:
        """Cost of installing one new version of ``value_bytes`` bytes."""
        return microseconds(self.put_key_us + self.per_byte_us * value_bytes)

    def coordinator_cost(self, num_partitions: int) -> float:
        """Cost of computing a snapshot and fanning out to ``num_partitions``."""
        return microseconds(self.coordinator_us * max(1, num_partitions))

    def dependency_cost(self, num_dependencies: int) -> float:
        """Cost of processing a dependency list."""
        return microseconds(self.per_dependency_us * num_dependencies)

    def rot_id_cost(self, num_ids: int) -> float:
        """Cost of processing ``num_ids`` ROT identifiers (readers check)."""
        return microseconds(self.per_rot_id_us * num_ids)

    def readers_check_cost(self, num_ids: int) -> float:
        """Cost of one readers-check leg carrying ``num_ids`` identifiers."""
        return microseconds(self.readers_check_request_us) + self.rot_id_cost(num_ids)

    def stabilization_cost(self) -> float:
        """Cost of one stabilization-protocol message."""
        return microseconds(self.stabilization_us)

    def replication_cost(self, value_bytes: int, num_dependencies: int) -> float:
        """Cost of applying one replicated update."""
        return (microseconds(self.replication_us + self.per_byte_us * value_bytes)
                + self.dependency_cost(num_dependencies))

    def client_cost(self) -> float:
        """Client-side cost of issuing or completing an operation."""
        return microseconds(self.client_overhead_us)


# --------------------------------------------------------------------------
# What each message costs the partition server that handles it
# --------------------------------------------------------------------------
# One pricing function per message type, ``(cost_model, kernel, message) ->
# seconds``, charged on top of :meth:`CostModel.message_cost`.  ``kernel`` is
# the serving partition's kernel: some prices depend on what it stores.  The
# CPU price of every message is what produces the queueing dynamics the paper
# measures; the readers-check prices are its central overhead.


def _stored_value_size(kernel, keys: list[str]) -> int:
    for key in keys:
        version = kernel.store.latest_visible(key)
        if version is not None:
            return version.size_bytes
    return 0


def _read(cost: CostModel, kernel, message) -> float:
    # For CC-LO, checking whether the ROT id appears in a version's
    # old-reader record is a hash lookup, so the read path pays no per-id
    # cost; the readers check (PUT path) is where the id lists are scanned.
    keys = list(message.keys)
    return cost.read_cost(len(keys), _stored_value_size(kernel, keys))


def _vector_put(cost: CostModel, kernel, message: VectorPutRequest) -> float:
    return (cost.put_cost(message.value_size)
            + cost.dependency_cost(len(message.client_vector)))


def _rot_coordinator(cost: CostModel, kernel,
                     message: RotCoordinatorRequest) -> float:
    groups = kernel.partitioner.group_by_partition(message.keys)
    own_keys = groups.get(kernel.partition_index, ())
    read = cost.read_cost(len(own_keys), _stored_value_size(kernel, own_keys)) \
        if not message.two_round and own_keys else 0.0
    return cost.coordinator_cost(len(groups)) + read


def _stabilization(cost: CostModel, kernel, message) -> float:
    return cost.stabilization_cost()


def _replication(cost: CostModel, kernel, message) -> float:
    return cost.replication_cost(message.value_size, len(message.dependencies))


def _cclo_put(cost: CostModel, kernel, message: CcloPutRequest) -> float:
    return (cost.put_cost(message.value_size)
            + cost.dependency_cost(len(message.dependencies)))


def _readers_check_request(cost: CostModel, kernel,
                           message: ReadersCheckRequest) -> float:
    ids = sum(kernel.readers.old_reader_count(key)
              for key, _, _ in message.dependencies)
    return cost.readers_check_cost(ids) \
        + cost.dependency_cost(len(message.dependencies))


def _readers_check_reply(cost: CostModel, kernel,
                         message: ReadersCheckReply) -> float:
    return cost.readers_check_cost(len(message.old_readers))


_MESSAGE_PRICES = {
    VectorPutRequest: _vector_put,
    RotCoordinatorRequest: _rot_coordinator,
    RotProxyRead: _read,
    RotReadRequest: _read,
    StabilizationMessage: _stabilization,
    RemoteHeartbeat: _stabilization,
    ReplicateUpdate: _replication,
    OneRoundReadRequest: _read,
    CcloPutRequest: _cclo_put,
    ReadersCheckRequest: _readers_check_request,
    ReadersCheckReply: _readers_check_reply,
    CcloReplicateUpdate: _replication,
}


def message_cost(cost: CostModel, kernel, message: object) -> float:
    """Protocol-specific CPU seconds ``message`` costs the server hosting
    ``kernel``; messages without a price (replies in transit to clients,
    unknown types) cost nothing beyond the fixed per-message charge."""
    price = _MESSAGE_PRICES.get(type(message))
    return price(cost, kernel, message) if price is not None else 0.0


__all__ = ["CostModel", "message_cost"]

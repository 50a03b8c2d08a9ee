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

Pricing runs once per simulated message, so it is kept to one table lookup
(:data:`MESSAGE_PRICES`, by message type, from the server's ``service_time``)
and one helper of the :class:`CostModel`, each a single expression in
microseconds times :data:`~repro.clocks.units.MICROSECOND`; the terms that do
not depend on the message (the fixed per-message and client costs) are
converted once per node.  Every simulated result depends on the last bit of
these sums: a helper may be inlined or reordered only if the float operations
and their order stay exactly what they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks.units import MICROSECOND
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
        return self.base_message_us * MICROSECOND

    def read_cost(self, num_keys: int, value_bytes: int) -> float:
        """Cost of serving a read of ``num_keys`` keys of ``value_bytes`` each."""
        return (self.read_key_us * num_keys
                + self.per_byte_us * value_bytes * num_keys) * MICROSECOND

    def put_cost(self, value_bytes: int) -> float:
        """Cost of installing one new version of ``value_bytes`` bytes."""
        return (self.put_key_us + self.per_byte_us * value_bytes) * MICROSECOND

    def coordinator_cost(self, num_partitions: int) -> float:
        """Cost of computing a snapshot and fanning out to ``num_partitions``."""
        return self.coordinator_us * max(1, num_partitions) * MICROSECOND

    def dependency_cost(self, num_dependencies: int) -> float:
        """Cost of processing a dependency list."""
        return self.per_dependency_us * num_dependencies * MICROSECOND

    def readers_check_cost(self, num_ids: int) -> float:
        """Cost of one readers-check leg carrying ``num_ids`` identifiers."""
        return (self.readers_check_request_us * MICROSECOND
                + self.per_rot_id_us * num_ids * MICROSECOND)

    def stabilization_cost(self) -> float:
        """Cost of one stabilization-protocol message."""
        return self.stabilization_us * MICROSECOND

    def replication_cost(self, value_bytes: int, num_dependencies: int) -> float:
        """Cost of applying one replicated update."""
        return ((self.replication_us + self.per_byte_us * value_bytes)
                * MICROSECOND + self.dependency_cost(num_dependencies))

    def client_cost(self) -> float:
        """Client-side cost of issuing or completing an operation."""
        return self.client_overhead_us * MICROSECOND


# --------------------------------------------------------------------------
# What each message costs the partition server that handles it
# --------------------------------------------------------------------------
# One pricing function per message type (:data:`MESSAGE_PRICES`),
# ``(cost_model, kernel, message) -> seconds``, charged on top of
# :meth:`CostModel.message_cost`; a type without one (replies in transit to
# clients, unknown types) costs nothing beyond that fixed charge.  ``kernel`` is
# the serving partition's kernel: some prices depend on what it stores.  The
# CPU price of every message is what produces the queueing dynamics the paper
# measures; the readers-check prices are its central overhead.


def _read(cost: CostModel, kernel, message, keys=None) -> float:
    """Reading ``keys`` (the message's own unless given) from the store; the
    values of a run share one size, so the first stored one prices them all."""
    # For CC-LO, checking whether the ROT id appears in a version's
    # old-reader record is a hash lookup, so the read path pays no per-id
    # cost; the readers check (PUT path) is where the id lists are scanned.
    if keys is None:
        keys = message.keys
    value_bytes = 0
    for key in keys:
        version = kernel.store.latest_visible(key)
        if version is not None:
            value_bytes = version.size_bytes
            break
    return cost.read_cost(len(keys), value_bytes)


def _vector_put(cost: CostModel, kernel, message: VectorPutRequest) -> float:
    return (cost.put_cost(message.value_size)
            + cost.dependency_cost(len(message.client_vector)))


def _rot_coordinator(cost: CostModel, kernel,
                     message: RotCoordinatorRequest) -> float:
    groups = kernel.partitioner.group_by_partition(message.keys)
    own_keys = groups.get(kernel.partition_index, ())
    read = _read(cost, kernel, message, own_keys) \
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
    old_reader_count = kernel.readers.old_reader_count
    ids = 0
    for key, _, _ in message.dependencies:
        ids += old_reader_count(key)
    return cost.readers_check_cost(ids) \
        + cost.dependency_cost(len(message.dependencies))


def _readers_check_reply(cost: CostModel, kernel,
                         message: ReadersCheckReply) -> float:
    return cost.readers_check_cost(len(message.old_readers))


MESSAGE_PRICES = {
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


__all__ = ["MESSAGE_PRICES", "CostModel"]

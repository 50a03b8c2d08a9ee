"""Cluster topology container.

A :class:`ClusterTopology` holds the simulated pieces of one run: the
simulator, the network, the partition servers of every DC and the closed-loop
clients.  It is populated by the harness builder
(:mod:`repro.harness.builder`) once the protocol is chosen; protocol code only
uses the lookup methods (``server_for_key``, ``replicas_of`` ...), never the
construction details.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.cluster.config import ClusterConfig
from repro.cluster.partitioning import HashPartitioner
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.common.kernel import Addr
    from repro.sim.drivers import BaseClient, PartitionServer, SimDriver


class ClusterTopology:
    """All simulated nodes of one run, indexed by DC and partition."""

    def __init__(self, sim: Simulator, network: Network,
                 config: ClusterConfig) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.partitioner = HashPartitioner(config.num_partitions)
        self._servers: dict[tuple[int, int], "PartitionServer"] = {}
        self._clients: list["BaseClient"] = []
        #: Every node by its abstract kernel address (how sends are routed;
        #: :meth:`node_at` is the lookup that names a missing address).
        self.nodes: dict["Addr", "SimDriver"] = {}

    # ---------------------------------------------------------------- servers
    def add_server(self, server: "PartitionServer") -> None:
        """Register a partition server at ``(server.dc_id, server.partition_index)``."""
        slot = (server.dc_id, server.partition_index)
        if slot in self._servers:
            raise ConfigurationError(f"duplicate server for DC/partition {slot}")
        self._servers[slot] = server
        self.nodes[server.addr] = server

    def server(self, dc: int, partition: int) -> "PartitionServer":
        """The server hosting ``partition`` in data center ``dc``."""
        try:
            return self._servers[(dc, partition)]
        except KeyError as exc:
            raise ConfigurationError(
                f"no server registered for DC {dc} partition {partition}") from exc

    def server_for_key(self, dc: int, key: str) -> "PartitionServer":
        """The server storing ``key`` in data center ``dc``."""
        return self.server(dc, self.partitioner.partition_of(key))

    def servers_in_dc(self, dc: int) -> list["PartitionServer"]:
        """All partition servers in data center ``dc``, ordered by partition."""
        return [self._servers[(dc, partition)]
                for partition in range(self.config.num_partitions)
                if (dc, partition) in self._servers]

    def all_servers(self) -> Iterator["PartitionServer"]:
        """All partition servers across every DC."""
        return iter(self._servers.values())

    def replicas_of(self, dc: int, partition: int) -> list["PartitionServer"]:
        """The replicas of ``partition`` in every data center other than ``dc``."""
        return [self._servers[(other_dc, partition)]
                for other_dc in range(self.config.num_dcs)
                if other_dc != dc and (other_dc, partition) in self._servers]

    def cross_dc_links(self, dc: int) -> list[tuple[int, int]]:
        """Directed ``(src_dc, dst_dc)`` link pairs between ``dc`` and the rest.

        Used by the fault controller to sever or degrade every link a DC
        partition affects (both directions of each pair).
        """
        links: list[tuple[int, int]] = []
        for other in range(self.config.num_dcs):
            if other != dc:
                links.append((dc, other))
                links.append((other, dc))
        return links

    # ---------------------------------------------------------------- clients
    def add_client(self, client: "BaseClient") -> None:
        """Register a closed-loop client."""
        self._clients.append(client)
        self.nodes[client.addr] = client

    def node_at(self, addr: "Addr") -> "SimDriver":
        """The node a kernel's :class:`Send` effect addresses."""
        try:
            return self.nodes[addr]
        except KeyError as exc:
            raise ConfigurationError(f"no node at {addr!r}") from exc

    @property
    def clients(self) -> list["BaseClient"]:
        return list(self._clients)

    def clients_in_dc(self, dc: int) -> list["BaseClient"]:
        """Clients attached to data center ``dc``."""
        return [client for client in self._clients if client.dc_id == dc]

    # ------------------------------------------------------------------ stats
    def average_cpu_utilization(self, elapsed: float) -> float:
        """Mean CPU utilisation across partition servers."""
        servers = list(self._servers.values())
        if not servers or elapsed <= 0:
            return 0.0
        return sum(server.stats.utilization(elapsed) for server in servers) / len(servers)


__all__ = ["ClusterTopology"]

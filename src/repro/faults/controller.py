"""Executes a :class:`~repro.faults.scenario.Scenario` against a built cluster.

The controller is registered on a cluster *before* the run starts: it
schedules one simulator event per fault event and a periodic gauge sampler.
Each fault event is translated into calls on the injection hooks the
simulation layers expose:

* network faults — :meth:`repro.sim.network.Network.block_link` /
  :meth:`~repro.sim.network.Network.set_link_fault` (per-link degradation
  table consulted in the send path);
* node faults — :meth:`repro.sim.node.Node.set_service_factor` /
  :meth:`~repro.sim.node.Node.pause` (GC-stall-style service inflation);
* workload shifts — :meth:`repro.workload.generator.WorkloadGenerator
  .set_parameters`, key rotation and client suspension.

Alongside the schedule the controller drives the *phase-sliced* metrics:
every event that names a phase calls
:meth:`~repro.metrics.collectors.MetricsRegistry.begin_phase`, and the
sampler records fault gauges (stalled ROTs, remote-visibility lag, held
messages, CC-LO reader-record size) into the current phase.

On CC-LO servers, and only there, the controller also gates version
collection on the ROTs in flight and orders same-key replicated versions;
Contrarian and Cure servers collect under their own snapshot floor.

A cluster run without a controller takes none of these code paths, so
scenario-free runs remain bit-identical to a build without this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.clocks.hlc import LOGICAL_BITS
from repro.clocks.units import milliseconds
from repro.errors import ConfigurationError
from repro.faults.scenario import FaultEvent, Scenario
from repro.metrics.collectors import MetricsRegistry
from repro.sim.engine import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import ClusterTopology

#: Phase name the controller opens at t=0 before any event fires.
BASELINE_PHASE = "baseline"


def _reading(client) -> bool:
    """Whether ``client`` has a ROT in flight (issued, not yet completed)."""
    operation = client.operation
    return operation is not None and not operation.is_put


def _timestamp_to_us(clock_mode: str, value: int) -> Optional[float]:
    """Convert a protocol timestamp to microseconds, if it is time-based."""
    if clock_mode == "hlc":
        return float(value >> LOGICAL_BITS)
    if clock_mode == "physical":
        return float(value)
    return None  # Plain logical clocks carry no wall-clock meaning.


class FaultController:
    """Injects a scenario's faults into one simulated cluster run.

    Parameters
    ----------
    topology:
        The built cluster's topology (gives access to the simulator, the
        network, the servers and the clients).
    metrics:
        The run's metric registry; receives phase boundaries and gauges.
    scenario:
        The schedule to execute.
    sample_interval_ms:
        Period of the fault-gauge sampler.
    stall_threshold_ms:
        An in-flight ROT older than this counts as *stalled* in the
        ``stalled_rots`` gauge.
    """

    def __init__(self, topology: "ClusterTopology", metrics: MetricsRegistry,
                 scenario: Scenario, *, sample_interval_ms: float = 10.0,
                 stall_threshold_ms: float = 25.0) -> None:
        self.topology = topology
        self.metrics = metrics
        self.scenario = scenario
        self.sim = topology.sim
        self.network = topology.network
        self.config = topology.config
        self.sample_interval_ms = sample_interval_ms
        self.stall_threshold_s = milliseconds(stall_threshold_ms)
        self.applied_events: list[FaultEvent] = []
        self._sampler: Optional[PeriodicTask] = None
        self._installed = False
        self._num_dcs = topology.config.num_dcs
        for event in scenario.events:
            self._validate(event)

    # -------------------------------------------------------------- lifecycle
    def install(self) -> None:
        """Schedule the fault events and start the gauge sampler.

        Must be called before the simulation runs (the schedule is expressed
        in absolute simulated time).
        """
        if self._installed:
            raise ConfigurationError("fault controller installed twice")
        self._installed = True
        self._install_retention_policies()
        self.metrics.begin_phase(BASELINE_PHASE, self.sim.now)
        for event in self.scenario.events:
            self.sim.call_at(event.at, self._make_apply(event))
        interval = milliseconds(self.sample_interval_ms)
        self._sampler = PeriodicTask(self.sim, interval, self._sample,
                                     start_delay=interval / 2)

    def shutdown(self) -> None:
        """Cancel the gauge sampler (called once the run is over)."""
        if self._sampler is not None:
            self._sampler.cancel()

    # ------------------------------------------------------------ version GC
    def _install_retention_policies(self) -> None:
        """Gate CC-LO's window trim on the ROTs in flight.

        A replication backlog can hold a CC-LO ROT longer than the reader
        window its version GC assumes.  The trim is vetoed where it would
        leave, as the oldest version kept, one barring a ROT still pending
        at its client: client state no server could see, standing in until
        the window is measured.
        """
        topology = self.topology
        for server in topology.all_servers():
            kernel = server.kernel
            if hasattr(kernel, "readers"):
                server.store.set_retention_policy(
                    self._cclo_retention_policy(
                        topology.clients_in_dc(server.dc_id)))
                # Same-key replicated versions must become visible in order,
                # or dependency checks satisfied by a newer visible version
                # expose updates whose exact dependency is still invisible
                # (a window the post-heal backlog stretches to hundreds of
                # milliseconds).
                kernel.enable_ordered_replication()

    @staticmethod
    def _cclo_retention_policy(clients):
        def bars_a_reader(old_readers) -> bool:
            return any(client.kernel.next_rot_id() in old_readers
                       for client in clients if _reading(client))

        def policy(chain, excess: int) -> int:
            # The window trim asks only for visible versions followed by a
            # visible one; keep those whose going would leave a version
            # barring an in-flight ROT as the oldest one kept.
            cut = excess
            while cut > 0 and chain[cut].old_readers \
                    and bars_a_reader(chain[cut].old_readers):
                cut -= 1
            return cut
        return policy

    # -------------------------------------------------------------- validation
    def _validate(self, event: FaultEvent) -> None:
        params = event.kwargs()
        for name in ("dc", "dc_a", "dc_b"):
            dc = params.get(name)
            if dc is not None and not 0 <= int(dc) < self._num_dcs:  # type: ignore[arg-type]
                raise ConfigurationError(
                    f"event {event.describe()} names DC {dc} but the cluster "
                    f"has {self._num_dcs} DCs")
        partition = params.get("partition")
        if partition is not None and \
                not 0 <= int(partition) < self.config.num_partitions:  # type: ignore[arg-type]
            raise ConfigurationError(
                f"event {event.describe()} names partition {partition} but "
                f"the cluster has {self.config.num_partitions} partitions")

    # --------------------------------------------------------------- execution
    def _make_apply(self, event: FaultEvent):
        def apply() -> None:
            self.apply(event)
        return apply

    def apply(self, event: FaultEvent) -> None:
        """Apply one fault event now (normally called by the scheduler)."""
        handler = getattr(self, f"_apply_{event.action}")
        handler(**event.kwargs())
        if event.phase:
            self.metrics.begin_phase(event.phase, self.sim.now)
        self.applied_events.append(event)

    # ------------------------------------------------------- network handlers
    def _apply_partition_dc(self, dc: int) -> None:
        for src_dc, dst_dc in self.topology.cross_dc_links(dc):
            self.network.block_link(src_dc, dst_dc)

    def _apply_partition_link(self, dc_a: int, dc_b: int) -> None:
        self.network.block_link(dc_a, dc_b)
        self.network.block_link(dc_b, dc_a)

    def _apply_degrade_link(self, dc_a: int, dc_b: int, **degradation: float) -> None:
        self.network.set_link_fault(dc_a, dc_b, **degradation)
        self.network.set_link_fault(dc_b, dc_a, **degradation)

    def _apply_heal(self) -> None:
        self.network.clear_link_faults()
        for server in self.topology.all_servers():
            server.set_service_factor(1.0)
            server.resume()

    # ---------------------------------------------------------- node handlers
    def _apply_slow_dc(self, dc: int, factor: float) -> None:
        for server in self.topology.servers_in_dc(dc):
            server.set_service_factor(factor)

    def _apply_slow_server(self, dc: int, partition: int, factor: float) -> None:
        self.topology.server(dc, partition).set_service_factor(factor)

    def _apply_pause_server(self, dc: int, partition: int) -> None:
        self.topology.server(dc, partition).pause()

    def _apply_resume_server(self, dc: int, partition: int) -> None:
        self.topology.server(dc, partition).resume()

    # ------------------------------------------------------ workload handlers
    def _apply_load_factor(self, fraction: float) -> None:
        for dc in range(self._num_dcs):
            clients = self.topology.clients_in_dc(dc)
            active = round(fraction * len(clients))
            for index, client in enumerate(clients):
                if index < active:
                    client.resume()
                else:
                    client.suspend()

    def _apply_workload(self, **changes: object) -> None:
        for client in self.topology.clients:
            client.generator.set_parameters(
                client.generator.parameters.with_changes(**changes))

    def _apply_rotate_keys(self, offset: int) -> None:
        for client in self.topology.clients:
            client.generator.rotate_keys(offset)

    def _apply_mark_phase(self) -> None:
        """Phase bookkeeping only; the phase itself is opened by ``apply``."""

    # ----------------------------------------------------------------- gauges
    def _sample(self) -> None:
        metrics = self.metrics
        stalled = 0
        for client in self.topology.clients:
            in_flight = client.in_flight_operation()
            if in_flight is not None and in_flight[0] == "rot" \
                    and in_flight[1] > self.stall_threshold_s:
                stalled += 1
        metrics.record_gauge("stalled_rots", float(stalled))
        metrics.record_gauge("held_messages",
                             float(self.network.held_message_count))
        visibility_lag_us = 0.0
        readers_entries = 0
        waiting_checks = 0
        for server in self.topology.all_servers():
            kernel = server.kernel
            vector = getattr(kernel, "version_vector", None)
            clock = getattr(kernel, "clock", None)
            if vector is not None and clock is not None and self._num_dcs > 1:
                local_us = _timestamp_to_us(clock.mode, clock.read())
                if local_us is not None:
                    for dc, entry in enumerate(vector):
                        if dc == server.dc_id:
                            continue
                        entry_us = _timestamp_to_us(clock.mode, entry)
                        if entry_us is not None:
                            visibility_lag_us = max(visibility_lag_us,
                                                    local_us - entry_us)
            readers = getattr(kernel, "readers", None)
            if readers is not None:
                readers_entries += readers.total_tracked_entries()
            waiting = getattr(kernel, "_waiting_remote_checks", None)
            if waiting:
                # Indexed by missing key: a leg missing two keys is listed twice.
                waiting_checks += len({id(leg) for legs in waiting.values()
                                       for leg in legs})
        if self._num_dcs > 1:
            metrics.record_gauge("visibility_lag_ms", visibility_lag_us / 1000.0)
        if readers_entries or waiting_checks:
            metrics.record_gauge("readers_entries", float(readers_entries))
            metrics.record_gauge("waiting_remote_checks", float(waiting_checks))


__all__ = ["BASELINE_PHASE", "FaultController"]

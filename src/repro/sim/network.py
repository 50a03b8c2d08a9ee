"""Message-passing network model.

The network delivers messages between :class:`~repro.sim.node.Node` instances
with a configurable one-way latency.  The paper emulates multiple data centers
over a 10 Gbps local network, so by default the intra-DC and inter-DC
latencies are equal; both can be changed to study true geo-replication.

Message size matters: serialisation on the wire is charged against a
per-message bandwidth term so that large values (Section 5.8) and large
dependency/ROT-id lists (CC-LO) consume proportionally more network time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.clocks.units import MICROSECOND, microseconds
from repro.core.common.kernel import message_size
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.node import Node


@dataclass(frozen=True)
class LatencyModel:
    """One-way network latencies and bandwidth.

    Attributes
    ----------
    intra_dc_us:
        One-way latency between two nodes in the same data center
        (microseconds).
    inter_dc_us:
        One-way latency between two nodes in different data centers.
        The paper emulates remote DCs over a LAN, so the default equals the
        intra-DC latency; set it higher to model true WAN replication.
    bandwidth_bytes_per_us:
        Serialisation bandwidth in bytes per microsecond (10 Gbps is
         1250 bytes/us).
    jitter_us:
        Uniform jitter added to each hop, in microseconds.
    """

    intra_dc_us: float = 50.0
    inter_dc_us: float = 50.0
    bandwidth_bytes_per_us: float = 1250.0
    jitter_us: float = 5.0

    def __post_init__(self) -> None:
        if self.intra_dc_us < 0 or self.inter_dc_us < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.bandwidth_bytes_per_us <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.jitter_us < 0:
            raise ConfigurationError("jitter must be non-negative")

    def one_way_delay(self, same_dc: bool, size_bytes: int,
                      jitter_fraction: float) -> float:
        """Return the one-way delay in simulated seconds.

        ``jitter_fraction`` is a uniform draw in ``[0, 1)`` supplied by the
        caller (so that randomness stays under the simulator's control).
        """
        base = self.intra_dc_us if same_dc else self.inter_dc_us
        serialisation = size_bytes / self.bandwidth_bytes_per_us
        jitter = self.jitter_us * jitter_fraction
        return microseconds(base + serialisation + jitter)


@dataclass
class NetworkStats:
    """Counters describing all traffic that went through the network."""

    messages: int = 0
    bytes: int = 0
    intra_dc_messages: int = 0
    inter_dc_messages: int = 0


class _DeliveryBatch:
    """All messages of one channel arriving at the same simulated instant.

    When a FIFO channel is backlogged, the arrival clamp below makes many
    messages share one arrival time.  Scheduling a single engine event that
    drains the whole batch (instead of one event per message) removes the
    dominant source of heap churn under load.  Per-channel FIFO order and
    arrival times are preserved exactly; what can differ from the unbatched
    schedule is the interleaving against *other* events at the same tick (a
    message joining an open batch fires at the batch's earlier sequence
    number).  Runs remain fully deterministic for a given seed, and the
    protocols only rely on per-channel ordering, not on cross-channel
    same-instant interleavings.

    A channel's newest batch is also its FIFO clamp: nothing sent later may
    arrive before ``time``.  Almost every batch carries one message, so the
    first rides in its own slots and ``more`` stays ``None`` until a second
    joins; the fields are assigned by :meth:`Network._schedule_arrival`, the
    only place that creates a batch (once per simulated message: no
    ``__init__`` frame).
    """

    __slots__ = ("time", "sender", "destination", "message", "trace", "more",
                 "closed")

    def deliver(self) -> None:
        # Close before draining: with a zero-latency model a handler can send
        # again at exactly this instant, and that message must get its own
        # delivery event rather than joining a batch that already fired.
        self.closed = True
        destination = self.destination
        sender = self.sender
        destination.enqueue_message(sender, self.message, self.trace)
        if self.more is not None:
            for message, trace in self.more:
                destination.enqueue_message(sender, message, trace)


class LinkFault:
    """Mutable degradation state of one directed DC-to-DC link.

    Installed by the fault controller and consulted in the network send path.
    A *blocked* link holds messages (they are flushed in FIFO order when the
    link is unblocked — the channel stays reliable, like TCP across a
    partition).  A degraded link multiplies the base latency, adds a fixed
    extra delay, amplifies jitter and charges each probabilistic "drop" one
    redelivery timeout instead of losing the message.
    """

    __slots__ = ("latency_factor", "extra_us", "jitter_factor",
                 "drop_probability", "redelivery_timeout_us", "blocked")

    def __init__(self, *, latency_factor: float = 1.0, extra_us: float = 0.0,
                 jitter_factor: float = 1.0, drop_probability: float = 0.0,
                 redelivery_timeout_us: float = 2000.0,
                 blocked: bool = False) -> None:
        if latency_factor <= 0 or jitter_factor < 0:
            raise ConfigurationError("link degradation factors must be positive")
        if extra_us < 0 or redelivery_timeout_us < 0:
            raise ConfigurationError("link delays must be non-negative")
        if not 0.0 <= drop_probability < 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1), got {drop_probability}")
        self.latency_factor = latency_factor
        self.extra_us = extra_us
        self.jitter_factor = jitter_factor
        self.drop_probability = drop_probability
        self.redelivery_timeout_us = redelivery_timeout_us
        self.blocked = blocked


class Network:
    """Delivers messages between simulated nodes.

    Every message is delivered asynchronously after the one-way delay computed
    by the :class:`LatencyModel`; delivery enqueues the message at the
    destination node's CPU (see :class:`repro.sim.node.Node`).  Same-tick
    deliveries on one channel are batched into a single engine event.

    The fault controller may install per-link :class:`LinkFault` entries
    (keyed by the ``(sender DC, destination DC)`` pair); while none is
    installed the send path is exactly the healthy fast path, including its
    RNG draws, so scenario-free runs are bit-identical to a fault-free build.
    """

    def __init__(self, sim: Simulator,
                 latency: Optional[LatencyModel] = None) -> None:
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.stats = NetworkStats()
        self._rng = sim.derived_rng("network-jitter")
        #: The newest delivery batch of every (sender, destination) channel.
        self._batches: dict[tuple["Node", "Node"], _DeliveryBatch] = {}
        # The latency model is frozen, so its terms can be flattened into the
        # per-send fast path below (``send`` runs once per simulated message).
        self._intra_us = self.latency.intra_dc_us
        self._inter_us = self.latency.inter_dc_us
        self._bandwidth = self.latency.bandwidth_bytes_per_us
        self._jitter_us = self.latency.jitter_us
        # Fault-injection state: empty (and RNG-free) on the healthy path.
        self._link_faults: dict[tuple[int, int], LinkFault] = {}
        self._held: dict[tuple[int, int],
                         list[tuple["Node", "Node", object, int,
                                    Optional[str]]]] = {}
        self._fault_rng: Optional["random.Random"] = None
        self.messages_dropped = 0

    def send(self, sender: "Node", destination: "Node", message: object,
             size: Optional[int] = None) -> None:
        """Send ``message`` of ``size`` bytes from ``sender`` to
        ``destination``.

        A server's host passes the size its counters already took; without
        one (a client's send) it is the message's ``size_bytes()``, else a
        small fixed header size (:func:`~repro.core.common.kernel.message_size`).

        Delivery is FIFO per (sender, destination) pair, like the TCP
        connections the paper's implementation uses.  FIFO channels are what
        lets a partition advance its version vector when it receives a
        replicated update or heartbeat: everything earlier from that replica
        has already arrived.
        """
        if size is None:
            size = message_size(message)
        stats = self.stats
        stats.messages += 1
        stats.bytes += size
        if sender.dc_id == destination.dc_id:
            stats.intra_dc_messages += 1
            base = self._intra_us
        else:
            stats.inter_dc_messages += 1
            base = self._inter_us
        # The message inherits the trace of whatever the sender is currently
        # serving (pure metadata: no RNG draws, no ordering changes, always
        # None with tracing disabled).
        trace = sender.current_trace
        if self._link_faults:
            fault = self._link_faults.get((sender.dc_id, destination.dc_id))
            if fault is not None:
                self._send_faulted(sender, destination, message, size, fault,
                                   trace)
                return
        # LatencyModel.one_way_delay, flattened (identical arithmetic: this
        # runs once per simulated message).
        self._schedule_arrival(
            sender, destination, message,
            (base + size / self._bandwidth
             + self._jitter_us * self._rng.random()) * MICROSECOND, trace)

    def _schedule_arrival(self, sender: "Node", destination: "Node",
                          message: object, delay: float,
                          trace: Optional[str] = None) -> None:
        """Clamp to per-channel FIFO order and schedule the delivery event."""
        channel = (sender, destination)
        arrival = self.sim.now + delay
        batch = self._batches.get(channel)
        if batch is not None and arrival <= batch.time:
            arrival = batch.time
            if not batch.closed:
                # The channel is backlogged and this message lands on the same
                # tick as the previous one: piggyback on its delivery event.
                if batch.more is None:
                    batch.more = []
                batch.more.append((message, trace))
                return
        batch = self._batches[channel] = _DeliveryBatch()
        batch.time = arrival
        batch.sender = sender
        batch.destination = destination
        batch.message = message
        batch.trace = trace
        batch.more = None
        batch.closed = False
        self.sim.call_at(arrival, batch.deliver)

    # ------------------------------------------------------------ fault hooks
    def _send_faulted(self, sender: "Node", destination: "Node",
                      message: object, size: int, fault: LinkFault,
                      trace: Optional[str] = None) -> None:
        """Degraded send path: hold, delay, or "drop" (delay by redelivery)."""
        if fault.blocked:
            self._held.setdefault((sender.dc_id, destination.dc_id), []).append(
                (sender, destination, message, size, trace))
            return
        same_dc = sender.dc_id == destination.dc_id
        base = (self._intra_us if same_dc else self._inter_us) \
            * fault.latency_factor + fault.extra_us
        delay_us = (base + size / self._bandwidth
                    + self._jitter_us * fault.jitter_factor * self._rng.random())
        if fault.drop_probability > 0.0:
            rng = self._fault_rng
            if rng is None:
                rng = self._fault_rng = self.sim.derived_rng("network-faults")
            # Each "drop" is a retransmission after a timeout: the channel
            # stays reliable and FIFO (the protocols assume TCP), loss only
            # costs time.  Cap the geometric retry count defensively.
            retries = 0
            while retries < 16 and rng.random() < fault.drop_probability:
                retries += 1
            if retries:
                self.messages_dropped += retries
                delay_us += retries * fault.redelivery_timeout_us
        self._schedule_arrival(sender, destination, message,
                               microseconds(delay_us), trace)

    def set_link_fault(self, src_dc: int, dst_dc: int, **degradation: float) -> None:
        """Install (or replace) the degradation state of one directed link.

        A blocked link stays blocked: degrading a severed link must not
        release its held messages (they would leapfrog the messages already
        in flight and break per-channel FIFO order); only
        :meth:`unblock_link` / :meth:`clear_link_faults` flush them.
        """
        previous = self._link_faults.get((src_dc, dst_dc))
        fault = LinkFault(**degradation)
        if previous is not None and previous.blocked:
            fault.blocked = True
        self._link_faults[(src_dc, dst_dc)] = fault

    def block_link(self, src_dc: int, dst_dc: int) -> None:
        """Sever one directed link: messages are held until it is unblocked."""
        fault = self._link_faults.get((src_dc, dst_dc))
        if fault is None:
            fault = self._link_faults[(src_dc, dst_dc)] = LinkFault(blocked=True)
        else:
            fault.blocked = True

    def unblock_link(self, src_dc: int, dst_dc: int) -> None:
        """Restore one directed link and flush its held messages in order."""
        fault = self._link_faults.pop((src_dc, dst_dc), None)
        if fault is None:
            return
        for sender, destination, message, size, trace in self._held.pop(
                (src_dc, dst_dc), []):
            # Re-entering ``send`` would double-count stats; schedule with the
            # healthy delay directly (FIFO order is preserved by the clamp).
            delay = self.latency.one_way_delay(
                sender.dc_id == destination.dc_id, size,
                self._rng.random())
            self._schedule_arrival(sender, destination, message, delay, trace)

    def clear_link_faults(self) -> None:
        """Remove every link fault, flushing all held messages (heal)."""
        for src_dc, dst_dc in list(self._link_faults):
            self.unblock_link(src_dc, dst_dc)

    @property
    def held_message_count(self) -> int:
        """Messages currently held by blocked links (a fault gauge)."""
        return sum(len(held) for held in self._held.values())


__all__ = ["LatencyModel", "LinkFault", "Network", "NetworkStats"]

"""Sans-I/O protocol kernels: effects, addresses and kernel base classes.

The protocol logic of Contrarian, Cure and CC-LO lives in *kernels* — pure
state machines that never import the simulator, an event loop, or a socket.
A kernel receives inputs through two entry points::

    on_message(sender, message, now) -> list[Effect]
    on_timer(tag, payload, now)      -> list[Effect]

and describes everything it wants done to the outside world as a list of
*effects*:

* :class:`Send` — deliver ``message`` to the node at ``dest`` (an abstract
  :class:`ServerAddr` / :class:`ClientAddr`, never an object reference);
* :class:`SetTimer` — call ``on_timer(tag, payload)`` after ``delay``
  seconds (one-shot);
* :class:`Complete` — (client kernels only) the in-flight operation
  finished with the attached outcome.

A *host* (:mod:`repro.core.common.host`) interprets the effects, the same
way for every backend; a backend *driver* owns the I/O underneath it: the
simulated one (:mod:`repro.sim.drivers`) resolves addresses against the
cluster topology and turns timers into simulator events, the real-time one
(:mod:`repro.runtime.nodes`) resolves them against a transport and loop
timer handles.  Effects are executed strictly in emission order, which
is what keeps simulated runs bit-identical to the pre-kernel implementation.

Time enters a kernel only through the ``now`` arguments and through the
clock object it was constructed with; randomness only through an injected
``random.Random``.  That makes kernels trivially testable: feed hand-crafted
messages, assert the emitted effects (see ``tests/test_kernels.py``).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Optional, Union

from repro.core.common.records import interned, record
from repro.errors import ProtocolError
from repro.metrics.overheads import OverheadCounters

# --------------------------------------------------------------------------
# Addresses
# --------------------------------------------------------------------------


@interned
class ServerAddr:
    """Location of a partition server: data center + partition index."""

    dc: int
    partition: int


@interned
class ClientAddr:
    """Location of a client, identified by its globally unique id."""

    client_id: str


Addr = Union[ServerAddr, ClientAddr]


def client_node_id(dc: int, index: int) -> str:
    """The globally unique id of client ``index`` in data center ``dc``.

    One naming scheme shared by every backend and by the process-cluster
    peer table, so a client's address is derivable from its (DC, index)
    placement alone.
    """
    return f"client-dc{dc}-{index}"


# --------------------------------------------------------------------------
# Effects
# --------------------------------------------------------------------------


@record
class Send:
    """Deliver ``message`` to the node at ``dest``."""

    dest: Addr
    message: object


@record
class SetTimer:
    """Invoke ``on_timer(tag, payload)`` after ``delay`` seconds (one-shot)."""

    delay: float
    tag: str
    payload: Any = None


@record
class PutOutcome:
    """Payload of a completed PUT.

    ``dependencies`` is the causal context snapshot taken *before* the PUT
    subsumed it — exactly what the consistency checker must record for this
    operation.
    """

    key: str
    timestamp: int
    origin_dc: int
    dependencies: tuple[tuple[str, int, int], ...] = ()


@record
class RotOutcome:
    """Payload of a completed ROT: one :class:`ReadResult` per key."""

    rot_id: str
    results: dict  # key -> ReadResult


@record
class Complete:
    """The client's in-flight operation finished.

    ``op`` is ``"put"`` or ``"rot"``; ``result`` the matching outcome
    record.  Only client kernels emit this effect.
    """

    op: str
    result: Union[PutOutcome, RotOutcome]


Effect = Union[Send, SetTimer, Complete]


def message_size(message: object, default: int = 64) -> int:
    """Wire size of ``message`` as it reports it (``size_bytes()``), else
    ``default``: the one sizing rule of the traffic counters, the simulated
    network and the TCP flush threshold."""
    size_bytes = getattr(message, "size_bytes", None)
    return size_bytes() if size_bytes is not None else default


@record
class TimerSpec:
    """A recurring timer a server kernel asks its driver to run.

    ``start_delay`` of ``None`` means "one full interval".  The driver fires
    ``on_timer(tag, None)`` at every occurrence.
    """

    tag: str
    interval: float
    start_delay: Optional[float] = None


# --------------------------------------------------------------------------
# Kernel bases
# --------------------------------------------------------------------------


class _EffectBuffer:
    """Mixin managing the ordered effect list kernels emit into.

    Kernel handler methods append through :meth:`_send` / :meth:`_set_timer`
    / :meth:`_complete` exactly where the pre-kernel code performed the I/O,
    so the list an entry point returns preserves the original operation order.
    """

    def __init__(self) -> None:
        self._effects: list[Effect] = []
        #: Observability hooks (see :mod:`repro.obs`): the driver attaches an
        #: event bus and sets the trace id of the input being handled before
        #: each entry-point call.  Both stay ``None`` with tracing disabled,
        #: and every emit site guards on ``tracer is not None`` so the hot
        #: path pays one attribute load.
        self.tracer = None
        self.current_trace: Optional[str] = None

    def _send(self, dest: Addr, message: object) -> None:
        self._effects.append(Send(dest, message))

    def _set_timer(self, delay: float, tag: str, payload: Any = None) -> None:
        self._effects.append(SetTimer(delay, tag, payload))

    def _complete(self, op: str, result: Union[PutOutcome, RotOutcome]) -> None:
        self._effects.append(Complete(op, result))


class _ClientAddrs(dict):
    """``addrs[client_id]`` is that client's interned :class:`ClientAddr`,
    fetched at the first lookup (bounded by the clients that ever reach the
    kernel): a hit is one ``dict`` probe, not a call into ``__new__``."""

    def __missing__(self, client_id: str) -> ClientAddr:
        addr = self[client_id] = ClientAddr(client_id)
        return addr


class ServerKernel(_EffectBuffer):
    """Shared state and routing helpers of the partition-server kernels.

    Concrete kernels fill ``_handlers`` (message type -> bound method taking
    ``(sender, message)``) or implement ``_dispatch`` (which gets every
    message no handler claims), and ``_handle_timer``; drivers call
    :meth:`on_message` / :meth:`on_timer` and execute the returned effects.
    """

    def __init__(self, *, node_id: str, dc_id: int, partition_index: int,
                 num_dcs: int, num_partitions: int, partitioner,
                 counters: Optional[OverheadCounters] = None,
                 rot_registry: Optional[Callable[[], object]] = None) -> None:
        super().__init__()
        self.node_id = node_id
        self.dc_id = dc_id
        self.partition_index = partition_index
        self.num_dcs = num_dcs
        self.num_partitions = num_partitions
        self.partitioner = partitioner
        self.counters = counters if counters is not None else OverheadCounters()
        #: Zero-argument callable returning the in-flight ROT registry (or
        #: ``None``).  A callable — not a reference — because fault scenarios
        #: install the registry after construction.
        self._rot_registry = rot_registry
        self.now = 0.0
        self._handlers: dict[type, Callable[[Addr, Any], None]] = {}
        # Routes, built once: a kernel's neighbours never change.
        self._dc_servers = tuple(ServerAddr(dc_id, partition)
                                 for partition in range(num_partitions))
        self._peers = tuple(addr for addr in self._dc_servers
                            if addr.partition != partition_index)
        self._replicas = tuple(ServerAddr(dc, partition_index)
                               for dc in range(num_dcs) if dc != dc_id)
        self._client_addrs = _ClientAddrs()

    # -------------------------------------------------------------- routing
    def replicas(self) -> tuple[ServerAddr, ...]:
        """Replicas of this partition in the other data centers, by DC."""
        return self._replicas

    def peers_in_dc(self) -> tuple[ServerAddr, ...]:
        """The other partition servers in this server's DC, by partition."""
        return self._peers

    def rot_registry(self):
        """The active-ROT registry, or ``None`` outside fault scenarios."""
        provider = self._rot_registry
        return provider() if provider is not None else None

    # ------------------------------------------------------------ entry API
    def on_message(self, sender: Addr, message: object,
                   now: float) -> list[Effect]:
        """Feed one message into the state machine; returns ordered effects."""
        self.now = now
        (self._handlers.get(type(message)) or self._dispatch)(sender, message)
        effects, self._effects = self._effects, []
        return effects

    def on_timer(self, tag: str, payload: Any, now: float) -> list[Effect]:
        """Fire a timer previously requested via :class:`SetTimer` or
        :meth:`periodic_timers`."""
        self.now = now
        self._handle_timer(tag, payload)
        effects, self._effects = self._effects, []
        return effects

    def periodic_timers(self) -> tuple[TimerSpec, ...]:
        """Recurring timers the driver must run; none by default."""
        return ()

    # ----------------------------------------------------------------- hooks
    def _dispatch(self, sender: Addr, message: object) -> None:
        raise ProtocolError(
            f"{self.node_id} cannot handle {type(message).__name__}")

    def _handle_timer(self, tag: str, payload: Any) -> None:
        raise ProtocolError(f"{self.node_id} has no timer {tag!r}")


class ClientKernel(_EffectBuffer):
    """Shared state of the client-side protocol kernels.

    The closed loop (issue-on-complete), metric recording and history
    recording stay in the driver; the kernel owns the causal context and the
    protocol exchange.  :class:`Complete` effects carry everything the driver
    needs to record the finished operation.
    """

    def __init__(self, *, client_id: str, dc_id: int, partitioner,
                 rot_registry: Optional[Callable[[], object]] = None) -> None:
        super().__init__()
        self.client_id = client_id
        self.dc_id = dc_id
        self.partitioner = partitioner
        self._rot_registry = rot_registry
        self.sequence = 0
        self.now = 0.0
        self._handlers: dict[type, Callable[[Any], None]] = {}
        #: Every destination a client has: the local DC's server addresses.
        self._servers = tuple(ServerAddr(dc_id, partition) for partition
                              in range(partitioner.num_partitions))

    def rot_registry(self):
        """The active-ROT registry, or ``None`` outside fault scenarios."""
        provider = self._rot_registry
        return provider() if provider is not None else None

    def next_rot_id(self) -> str:
        """A globally unique ROT identifier (client id + sequence number)."""
        return f"{self.client_id}#{self.sequence}"

    @staticmethod
    def rot_client_id(rot_id: str) -> str:
        """The client of ``rot_id`` (:meth:`next_rot_id` undone), interned."""
        return sys.intern(rot_id.rsplit("#", 1)[0])

    # ------------------------------------------------------------ entry API
    def start_operation(self, operation, sequence: int,
                        now: float) -> list[Effect]:
        """Issue ``operation`` (the driver's closed loop supplies the
        sequence number it assigned)."""
        self.sequence = sequence
        self.now = now
        if operation.is_put:
            self._issue_put(operation)
        else:
            self._issue_rot(operation)
        effects, self._effects = self._effects, []
        return effects

    def on_message(self, message: object, now: float) -> list[Effect]:
        """Feed one reply into the state machine; returns ordered effects."""
        self.now = now
        (self._handlers.get(type(message)) or self._dispatch)(message)
        effects, self._effects = self._effects, []
        return effects

    # ----------------------------------------------------------------- hooks
    def _issue_put(self, operation) -> None:
        raise NotImplementedError

    def _issue_rot(self, operation) -> None:
        raise NotImplementedError

    def _dispatch(self, message: object) -> None:
        raise ProtocolError(
            f"{self.client_id} cannot handle {type(message).__name__}")

    def checker_dependencies(self) -> tuple[tuple[str, int, int], ...]:
        """The causal context the checker records with PUTs."""
        return ()


__all__ = [
    "Addr",
    "ClientAddr",
    "ClientKernel",
    "Complete",
    "Effect",
    "PutOutcome",
    "RotOutcome",
    "Send",
    "ServerAddr",
    "ServerKernel",
    "SetTimer",
    "TimerSpec",
    "client_node_id",
    "message_size",
]

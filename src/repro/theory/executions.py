"""The Theorem 1 proof construction (Section 6.3), run on the real kernels.

The proof takes two keys ``x`` and ``y`` on different partitions ``px`` and
``py`` of one data center, a writer client that issues ``PUT(x, X0);
PUT(y, Y0)`` and, later, ``PUT(x, X1); PUT(y, Y1)``, and a set ``D`` of
potential readers.  Execution ``E(R)`` lets exactly the readers in ``R``
issue ``ROT({x, y})`` between the two pairs of PUTs.  Lemma 1: a correct
latency-optimal protocol must make ``px`` and ``py`` communicate differently
for every ``R`` before ``PUT(y, Y1)`` completes; otherwise the execution
``E*``, in which a reader's read of ``y`` is held back until ``PUT(y, Y1)``
completed, returns the snapshot ``(X0, Y1)``.

Here the construction drives the registered kernels — CC-LO, Contrarian,
Cure, or any :class:`~repro.core.registry.ProtocolSpec` — through the shared
kernel hosts (:mod:`repro.core.common.host`) on a scripted driver: every
send and timer joins one held list, served in FIFO order on a
:class:`~repro.clocks.timesource.FixedClock`, except what the schedule holds
back.  A signature is the :func:`repro.wire.encode` bytes of the
server-to-server messages of ``PUT(x, X1); PUT(y, Y1)``, and the verdict on
a snapshot is the :class:`~repro.causal.streaming.StreamingChecker`'s report,
exactly as on every backend.

:data:`LAMPORT_ONLY` is the paper's straw man: CC-LO whose readers check
answers with no reader ids, so only Lamport timestamps cross partitions.
It collides on signatures and ``E*`` makes the checker flag it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Union

from repro.causal.checker import CheckerReport
from repro.causal.streaming import StreamingChecker
from repro.clocks.timesource import FixedClock
from repro.cluster.config import ClusterConfig
from repro.cluster.partitioning import HashPartitioner
from repro.core.cclo.kernel import CcloClientKernel, CcloKernel
from repro.core.common.host import ClientHost, ServerHost
from repro.core.common.kernel import ServerAddr, SetTimer
from repro.core.common.messages import ReadersCheckReply
from repro.core.registry import ProtocolSpec, resolve_spec
from repro.errors import TheoryError
from repro.metrics.collectors import MetricsRegistry
from repro.wire import encode
from repro.workload.generator import Operation

#: Version labels of the construction; ``None`` is "nothing read".
X0, X1, Y0, Y1 = "X0", "X1", "Y0", "Y1"

#: Subsets of more readers than this are not enumerated (2^16 executions).
MAX_READERS = 16


class LamportOnlyKernel(CcloKernel):
    """CC-LO whose readers check names no readers: the paper's straw man."""

    def _reply_readers_check(self, sender, message) -> None:
        self._send(sender, ReadersCheckReply(message.check_id, old_readers=()))


#: The straw man as a protocol; deliberately not registered.
LAMPORT_ONLY = ProtocolSpec("lamport-only", kernel=LamportOnlyKernel,
                            client_kernel=CcloClientKernel)


@dataclass(frozen=True)
class ExecutionOutcome:
    """One constructed execution.

    ``signature`` is Lemma 1's string, one encoded message per entry;
    ``snapshots`` maps each reader to the labels its ROT returned for
    ``(x, y)``; ``report`` is the checker's verdict on the whole history.
    """

    readers: frozenset[int]
    signature: tuple[bytes, ...]
    snapshots: dict[int, tuple[Optional[str], Optional[str]]]
    report: CheckerReport

    @property
    def signature_bits(self) -> int:
        return 8 * sum(len(message) for message in self.signature)


class _ScriptedServer(ServerHost):
    """A server whose sends and one-shot timers wait in the held list."""

    def __init__(self, kernel, script: "_Script") -> None:
        super().__init__(kernel, script.clock)
        self.held = script.held

    def _send(self, dest, message, size) -> None:
        self.held.append((self.addr, dest, message))

    def _arm_timer(self, timer: SetTimer, trace) -> None:
        self.held.append((self.addr, self.addr, timer))


class _ScriptedClient(ClientHost):
    """A client whose sends wait in the held list; the construction issues
    its operations, so a completion starts nothing."""

    def __init__(self, kernel, script: "_Script") -> None:
        super().__init__(kernel, script.clock, None, MetricsRegistry(),
                         script.checker)
        self.held = script.held

    def _send(self, dest, message, size) -> None:
        self.held.append((self.addr, dest, message))

    def _completed(self, result) -> None:
        pass


class _Script:
    """One data center of two partitions and ``clients`` clients whose
    deliveries are served in FIFO order when :meth:`deliver` says so."""

    def __init__(self, spec: ProtocolSpec, clients: int) -> None:
        config = ClusterConfig(num_partitions=2, clients_per_dc=clients)
        partitioner = HashPartitioner(2)
        self.clock = FixedClock()
        self.checker = StreamingChecker.offline()
        self.held: deque[tuple] = deque()
        #: Encoded server-to-server messages while recording, else ``None``.
        self.signature: Optional[list[bytes]] = None
        servers = [_ScriptedServer(spec.build_server_kernel(
            config, 0, partition, partitioner=partitioner,
            time_source=self.clock), self) for partition in range(2)]
        self.clients = [_ScriptedClient(spec.build_client_kernel(
            config, 0, index, partitioner=partitioner)[0], self)
            for index in range(clients)]
        self.hosts = {host.addr: host for host in servers + self.clients}

    def deliver(self, admit=lambda item: True) -> None:
        """Serve held items oldest first until only refused ones remain."""
        held, refused = self.held, []
        while held:
            item = held.popleft()
            source, dest, message = item
            if not admit(item):
                refused.append(item)
            elif type(message) is SetTimer:
                self.clock.advance(message.delay)
                self.hosts[dest].fire_timer(message.tag, message.payload)
            else:
                if self.signature is not None and type(source) is ServerAddr \
                        and type(dest) is ServerAddr:
                    self.signature.append(encode(message))
                self.hosts[dest].dispatch(source, message, None)
        held.extend(refused)


def build_execution(protocol: Union[str, ProtocolSpec], readers: Iterable[int],
                    delayed_readers: Iterable[int] = ()) -> ExecutionOutcome:
    """Run ``E(readers)``, or ``E*`` when some readers are delayed.

    Client 0 is the writer and reader ``i`` is client ``i`` (``i >= 1``), so
    a reader's ROT id is the same in every execution.  Every message that
    carries a delayed reader's ROT id to ``py`` is held until ``PUT(y, Y1)``
    completed.
    """
    spec = resolve_spec(protocol) if isinstance(protocol, str) else protocol
    reader_set, delayed = frozenset(readers), frozenset(delayed_readers)
    if not delayed <= reader_set:
        raise TheoryError("delayed readers must be a subset of the readers")
    if not reader_set <= frozenset(range(1, MAX_READERS + 1)):
        raise TheoryError(f"readers are the clients 1 .. {MAX_READERS}")
    script = _Script(spec, 1 + max(reader_set, default=0))
    x, y = HashPartitioner.structured_key(0, 0), HashPartitioner.structured_key(1, 0)
    py = ServerAddr(0, 1)
    held_ids = {f"{script.clients[i].node_id}#1" for i in delayed}

    def admit(item) -> bool:
        return item[1] is not py \
            or getattr(item[2], "rot_id", None) not in held_ids

    writer = script.clients[0]
    labels = {}

    def put(key: str, label: str) -> None:
        writer.issue(Operation("put", (key,)))
        script.deliver(admit)
        labels[(key, writer.outcome.timestamp)] = label

    put(x, X0)
    put(y, Y0)
    for reader in sorted(reader_set):
        script.clients[reader].issue(Operation("rot", (x, y)))
    script.deliver(admit)
    script.signature = []
    put(x, X1)
    put(y, Y1)
    signature, script.signature = tuple(script.signature), None
    script.deliver()
    snapshots = {}
    for reader in sorted(reader_set):
        results = script.clients[reader].outcome.results
        snapshots[reader] = tuple(labels.get((key, results[key].timestamp))
                                  for key in (x, y))
    return ExecutionOutcome(reader_set, signature, snapshots,
                            script.checker.check())


def communication_signature(protocol: Union[str, ProtocolSpec],
                            readers: Iterable[int]) -> tuple[bytes, ...]:
    """Lemma 1's communication string of ``E(readers)``."""
    return build_execution(protocol, readers).signature


def reader_subsets(num_readers: int) -> list[tuple[int, ...]]:
    """Every subset of the readers ``1 .. num_readers``."""
    if num_readers > MAX_READERS:
        raise TheoryError(
            f"subset enumeration is limited to {MAX_READERS} readers")
    readers = range(1, num_readers + 1)
    return [subset for size in range(num_readers + 1)
            for subset in combinations(readers, size)]


def lemma1_holds(protocol: Union[str, ProtocolSpec], num_readers: int) -> bool:
    """Whether every subset of ``num_readers`` readers has its own signature."""
    subsets = reader_subsets(num_readers)
    return len({communication_signature(protocol, subset)
                for subset in subsets}) == len(subsets)


def find_causal_violation(protocol: Union[str, ProtocolSpec],
                          num_readers: int) -> Optional[ExecutionOutcome]:
    """The first ``E*(R, {c})`` the checker flags, over every ``R`` and
    ``c`` in ``R``; ``None`` when the protocol passes them all."""
    for subset in reader_subsets(num_readers):
        for reader in subset:
            outcome = build_execution(protocol, subset, (reader,))
            if not outcome.report.ok:
                return outcome
    return None


def construction_summary(protocol: Union[str, ProtocolSpec],
                         num_readers: int) -> tuple[int, int, int]:
    """One row of the Theorem 1 table over ``num_readers`` readers: distinct
    signatures of the ``E(R)``, ``E*(R, {c})`` runs the checker flags, and
    the most bits one ``E(R)`` communicates."""
    subsets = reader_subsets(num_readers)
    outcomes = [build_execution(protocol, subset) for subset in subsets]
    flagged = sum(not build_execution(protocol, subset, (reader,)).report.ok
                  for subset in subsets for reader in subset)
    return (len({outcome.signature for outcome in outcomes}), flagged,
            max(outcome.signature_bits for outcome in outcomes))


__all__ = [
    "ExecutionOutcome",
    "LAMPORT_ONLY",
    "LamportOnlyKernel",
    "MAX_READERS",
    "X0",
    "X1",
    "Y0",
    "Y1",
    "build_execution",
    "communication_signature",
    "construction_summary",
    "find_causal_violation",
    "lemma1_holds",
    "reader_subsets",
]

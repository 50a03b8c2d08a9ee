"""Benchmark-side tracing: spans around the calls into each layer.

Nothing under ``src/`` is edited or monkeypatched.  The traced run swaps
*instances* the runtime exposes as plain attributes for delegating proxies —
``node.kernel``, ``kernel.store``, ``client.generator`` — and hands the
cluster a :class:`Transport` subclass that times ``send`` and stamps every
``deliver``.  All of them report to one :class:`Tracer`.

Causality without touching the nodes: a traced transport puts its own token
in the ``trace`` argument every ``send`` already carries, the stamp wrapper
registered in front of each node resolves the token at ``deliver`` (so a
send on one TCP transport meets its delivery on the other), and because a
node handles its mailbox in FIFO order the kernel proxy pairs each
``on_message`` with the oldest stamped delivery of its node.  Sends are
attributed to the kernel call that last returned, which is exact: the nodes
execute a call's effects synchronously right after it.

Along that chain the tracer carries the seconds of the operation's latency
that fall inside a span (kernel, mailbox wait, transport); what is left when
the ``Complete`` effect appears is the time between spans — effect dispatch
in ``runtime.nodes`` — and is reported as the budget's unexplained share.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import deque
from typing import Optional

from repro.core.common.kernel import Complete
from repro.metrics.latency import percentile
from repro.runtime.transport import Envelope, InprocTransport, TcpTransport

#: Spans kept verbatim for ``TRACE_<workload>.json`` (those with the lowest
#: ids); later spans still count in every total and percentile.
SPAN_DUMP_LIMIT = 20_000
#: Envelopes of the run's own traffic kept for the wire micro-timings.
ENVELOPE_CAPTURE_LIMIT = 4096

#: Indices into an "explained seconds" triple.
KERNEL, WAIT, TRANSPORT = 0, 1, 2

_now = time.perf_counter


class Tracer:
    """Span sink of one traced run: totals, percentile samples, a span dump."""

    def __init__(self) -> None:
        #: span name -> [count, seconds]
        self.totals: dict[str, list] = {}
        self.samples: dict[str, array] = {}
        self.spans: list[tuple] = []
        self.spans_recorded = 0
        #: token -> (send start, op, send span id, explained triple at send
        #: start, [still inside the send call?]) of undelivered messages.
        self.in_flight: dict[str, tuple] = {}
        # Context left by the kernel call that last returned (or is running):
        # the store calls inside it and the sends after it belong to it.
        self.op: Optional[str] = None
        self.cause = 0
        self.explained = (0.0, 0.0, 0.0)
        #: Summed over completed operations: explained kernel, wait and
        #: transport seconds, then latency.
        self.budget = [0.0, 0.0, 0.0, 0.0]
        self.budget_ops = 0
        self.envelopes: list[Envelope] = []
        #: Multiplies every reported duration: the host-speed index of the
        #: window the durations were taken in (see host.py).
        self.time_scale = 1.0

    # ------------------------------------------------------------- recording
    def begin(self) -> int:
        """Allocate a span id (at span start, so children can name it)."""
        self.spans_recorded += 1
        return self.spans_recorded

    def end(self, span_id: int, name: str, start: float, end: float,
            parent: int, op: Optional[str]) -> None:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0]
        total[0] += 1
        total[1] += end - start
        if span_id <= SPAN_DUMP_LIMIT:
            self.spans.append((span_id, name, start, end, parent, op))

    def sample(self, name: str, seconds: float) -> None:
        values = self.samples.get(name)
        if values is None:
            values = self.samples[name] = array("d")
        values.append(seconds)

    def reset(self) -> None:
        """Forget the totals measured so far (end of warm-up)."""
        self.totals.clear()
        self.samples.clear()
        self.budget = [0.0, 0.0, 0.0, 0.0]
        self.budget_ops = 0

    # ---------------------------------------------------------------- queries
    def count(self, prefix: str) -> int:
        return sum(total[0] for name, total in self.totals.items()
                   if name.startswith(prefix))

    def seconds(self, prefix: str) -> float:
        return sum(total[1] for name, total in self.totals.items()
                   if name.startswith(prefix))

    def mean_us(self, prefix: str) -> float:
        count = self.count(prefix)
        if not count:
            return 0.0
        return self.seconds(prefix) / count * 1e6 * self.time_scale

    def percentile_us(self, name: str, fraction: float) -> float:
        values = self.samples.get(name)
        if not values:
            return 0.0
        return percentile(sorted(values), fraction) * 1e6 * self.time_scale

    def dump(self, path: str, workload: str) -> None:
        """Write the kept spans, by id, times relative to the earliest."""
        spans = sorted(self.spans)
        origin = min((span[2] for span in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": workload,
                "spans_recorded": self.spans_recorded,
                "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
                "spans": [[span_id, name, round(start - origin, 7),
                           round(end - origin, 7), parent, op]
                          for span_id, name, start, end, parent, op in spans],
            }, handle)
            handle.write("\n")


class Delegate:
    """Forwards every attribute that does not start with ``_t_`` to the
    wrapped object, reads and writes alike."""

    def __init__(self, inner) -> None:
        object.__setattr__(self, "_t_inner", inner)

    def __getattr__(self, name):
        return getattr(self._t_inner, name)

    def __setattr__(self, name, value) -> None:
        if name.startswith("_t_"):
            object.__setattr__(self, name, value)
        else:
            setattr(self._t_inner, name, value)


class TimedGenerator(Delegate):
    """``client.generator``: times ``next_operation``."""

    def __init__(self, inner, tracer: Tracer) -> None:
        super().__init__(inner)
        self._t_tracer = tracer

    def next_operation(self):
        tracer = self._t_tracer
        start = _now()
        operation = self._t_inner.next_operation()
        tracer.end(tracer.begin(), "workload.generator.next_operation", start,
                   _now(), 0, None)
        return operation


class TimedStore(Delegate):
    """``kernel.store``: times the calls kernels make while serving."""

    def __init__(self, inner, tracer: Tracer) -> None:
        super().__init__(inner)
        self._t_tracer = tracer

    def _timed(self, name: str, method, *args):
        tracer = self._t_tracer
        start = _now()
        result = method(*args)
        tracer.end(tracer.begin(), name, start, _now(), tracer.cause,
                   tracer.op)
        return result

    def __len__(self) -> int:
        # Special methods are looked up on the type, past __getattr__.
        return len(self._t_inner)

    def install(self, version):
        return self._timed("storage.mvstore.install", self._t_inner.install,
                           version)

    def latest(self, key, predicate=None):
        return self._timed("storage.mvstore.latest", self._t_inner.latest,
                           key, predicate)

    def latest_visible(self, key):
        return self._timed("storage.mvstore.latest_visible",
                           self._t_inner.latest_visible, key)

    def versions(self, key):
        return self._timed("storage.mvstore.versions", self._t_inner.versions,
                           key)


class TimedChecker(Delegate):
    """A checker-shaped recorder: times ingestion and the final check."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self._t_seconds = 0.0

    def _timed(self, method, *args):
        start = _now()
        result = method(*args)
        self._t_seconds += _now() - start
        return result

    def record_put(self, put) -> None:
        self._timed(self._t_inner.record_put, put)

    def record_rot(self, rot) -> None:
        self._timed(self._t_inner.record_rot, rot)

    def check(self):
        return self._timed(self._t_inner.check)

    @property
    def seconds(self) -> float:
        """Seconds spent inside the checker so far."""
        return self._t_seconds

    @property
    def operations(self) -> int:
        return self._t_inner.recorded_puts + self._t_inner.recorded_rots


class _TimedKernel(Delegate):
    """Shared part of the kernel proxies.

    ``deliveries`` is the node's queue of stamped deliveries (realtime) or
    ``None`` (simulator: it has no mailbox to wait in).
    """

    def __init__(self, inner, tracer: Tracer,
                 deliveries: Optional[deque]) -> None:
        super().__init__(inner)
        self._t_tracer = tracer
        self._t_deliveries = deliveries

    def _handle(self, name: str, method, *args):
        """Time a kernel entry point fed by the node's next delivery."""
        tracer = self._t_tracer
        start = _now()
        parent, op, explained = 0, None, (0.0, 0.0, 0.0)
        if self._t_deliveries:
            delivered_at, op, sender_span, explained = \
                self._t_deliveries.popleft()
            parent = tracer.begin()
            tracer.end(parent, "runtime.nodes.mailbox_wait", delivered_at,
                       start, sender_span, op)
            tracer.sample("mailbox_wait", start - delivered_at)
            explained = (explained[KERNEL],
                         explained[WAIT] + start - delivered_at,
                         explained[TRANSPORT])
        span_id = tracer.begin()
        tracer.op, tracer.cause = op, span_id
        effects = method(*args)
        end = _now()
        tracer.end(span_id, name, start, end, parent, op)
        tracer.explained = (explained[KERNEL] + end - start,
                            explained[WAIT], explained[TRANSPORT])
        return effects, end


class TimedServerKernel(_TimedKernel):
    """``server.kernel``: times ``on_message`` (per class) and ``on_timer``."""

    def on_message(self, sender, message, now):
        return self._handle(
            "core.kernel.server.on_message." + type(message).__name__,
            self._t_inner.on_message, sender, message, now)[0]

    def on_timer(self, tag, payload, now):
        tracer = self._t_tracer
        start = _now()
        span_id = tracer.begin()
        tracer.op, tracer.cause = None, span_id
        effects = self._t_inner.on_timer(tag, payload, now)
        tracer.end(span_id, "core.kernel.server.on_timer", start, _now(), 0,
                   None)
        tracer.explained = (0.0, 0.0, 0.0)
        return effects


class TimedClientKernel(_TimedKernel):
    """``client.kernel``: operation roots, replies and the closed-loop gap."""

    def __init__(self, inner, tracer: Tracer,
                 deliveries: Optional[deque]) -> None:
        super().__init__(inner, tracer, deliveries)
        self._t_op = (0, "", 0.0, "rot")  # root span id, op id, start, kind
        self._t_completed_at = 0.0

    def start_operation(self, operation, sequence, now):
        tracer = self._t_tracer
        start = _now()
        if self._t_completed_at:
            tracer.sample("op_turnaround", start - self._t_completed_at)
        op = f"{self._t_inner.client_id}#{sequence}"
        root = tracer.begin()
        self._t_op = (root, op, start, operation.kind)
        span_id = tracer.begin()
        tracer.op, tracer.cause = op, span_id
        effects = self._t_inner.start_operation(operation, sequence, now)
        end = _now()
        tracer.end(span_id, "core.kernel.client.start_operation", start, end,
                   root, op)
        tracer.explained = (end - start, 0.0, 0.0)
        return effects

    def on_message(self, message, now):
        effects, end = self._handle("core.kernel.client.on_message",
                                    self._t_inner.on_message, message, now)
        if any(isinstance(effect, Complete) for effect in effects):
            self._complete(end)
        return effects

    def _complete(self, end: float) -> None:
        tracer = self._t_tracer
        root, op, start, kind = self._t_op
        tracer.end(root, "op." + kind, start, end, 0, op)
        tracer.sample("op." + kind, end - start)
        budget, explained = tracer.budget, tracer.explained
        budget[KERNEL] += explained[KERNEL]
        budget[WAIT] += explained[WAIT]
        budget[TRANSPORT] += explained[TRANSPORT]
        budget[3] += end - start
        tracer.budget_ops += 1
        self._t_completed_at = end


class StampedNode:
    """Registered in front of a node: stamps ``deliver``, then forwards."""

    def __init__(self, node, tracer: Tracer, deliveries: deque) -> None:
        self.node = node
        self._tracer = tracer
        self._deliveries = deliveries

    def deliver(self, sender, message, trace=None) -> None:
        tracer = self._tracer
        now = _now()
        sent_at, op, send_span, explained, in_send = tracer.in_flight.pop(
            trace)
        if not in_send[0]:
            # Delivered outside the send call: the message crossed a socket.
            tracer.end(tracer.begin(), "runtime.transport.tcp_hop", sent_at,
                       now, send_span, op)
            tracer.sample("tcp_hop", now - sent_at)
        self._deliveries.append((now, op, send_span, (
            explained[KERNEL], explained[WAIT],
            explained[TRANSPORT] + now - sent_at)))
        self.node.deliver(sender, message, None)


class _TimedTransport:
    """Mixin over a concrete transport: times ``send``, stamps ``deliver``.

    Listed before the transport class, so ``super()`` reaches the real
    ``send`` and ``register_local``.
    """

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.spans = tracer
        #: Per-node delivery queues, shared with the node's kernel proxy.
        self.deliveries: dict[object, deque] = {}

    def register_local(self, addr, node) -> None:
        queue = self.deliveries[addr] = deque()
        super().register_local(addr, StampedNode(node, self.spans, queue))

    def send(self, sender, dest, message, trace=None) -> None:
        tracer = self.spans
        start = _now()
        span_id = tracer.begin()
        token = str(span_id)
        in_send = [True]
        tracer.in_flight[token] = (start, tracer.op, span_id,
                                   tracer.explained, in_send)
        if (dest not in self._local
                and len(tracer.envelopes) < ENVELOPE_CAPTURE_LIMIT):
            tracer.envelopes.append(Envelope(sender, dest, message, token))
        try:
            super().send(sender, dest, message, token)
        finally:
            in_send[0] = False
            end = _now()
            tracer.end(span_id, "runtime.transport.send", start, end,
                       tracer.cause, tracer.op)
            explained = tracer.explained
            tracer.explained = (explained[KERNEL], explained[WAIT],
                                explained[TRANSPORT] + end - start)


class TimedInprocTransport(_TimedTransport, InprocTransport):
    """:class:`InprocTransport` reporting to a :class:`Tracer`."""


class TimedTcpTransport(_TimedTransport, TcpTransport):
    """:class:`TcpTransport` reporting to a :class:`Tracer`."""


def wrap_deployment(deployment, tracer: Tracer) -> None:
    """Swap kernels, stores and generators of a realtime deployment whose
    transports are :class:`_TimedTransport` s."""
    for cluster in deployment.clusters:
        deliveries = cluster.transport.deliveries
        for server in cluster.servers.values():
            server.kernel.store = TimedStore(server.kernel.store, tracer)
            server.kernel = TimedServerKernel(server.kernel, tracer,
                                              deliveries[server.addr])
        for client in cluster.clients:
            client.kernel = TimedClientKernel(client.kernel, tracer,
                                              deliveries[client.addr])
            client.generator = TimedGenerator(client.generator, tracer)


def wrap_sim_cluster(cluster, tracer: Tracer) -> None:
    """Swap kernels, stores and generators of a simulated cluster."""
    for server in cluster.topology.all_servers():
        server.kernel.store = TimedStore(server.kernel.store, tracer)
        server.kernel = TimedServerKernel(server.kernel, tracer, None)
    for client in cluster.topology.clients:
        client.kernel = TimedClientKernel(client.kernel, tracer, None)
        client.generator = TimedGenerator(client.generator, tracer)

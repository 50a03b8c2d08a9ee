"""Kernel hosts: everything around a kernel that no backend should repeat.

A sans-I/O kernel (:mod:`repro.core.common.kernel`) turns inputs into a list
of effects.  Something has to feed it those inputs and carry the effects out,
and most of that work is the same whether time is simulated or real:

* **effect dispatch** — ``Send`` / ``SetTimer`` / ``Complete``, strictly in
  emission order, with the ``msg_send`` / ``effect`` / ``op_finish`` trace
  events and the servers' ``messages_sent`` / ``bytes_sent`` accounting;
* **inbound dispatch** — adopt the input's trace id, emit ``msg_recv``, call
  the kernel, run what it returns;
* **operation issue** — sequence number, ``metrics.note_issue``, trace id
  and ``op_start``, start stamp, ``kernel.start_operation``;
* **completion recording** — ``metrics.record_put`` / ``record_rot`` and the
  :class:`~repro.causal.checker.RecordedPut` / ``RecordedRot`` handed to the
  checker.

This module holds the only implementation of each, as two mixins — one per
role, :class:`ServerHost` and :class:`ClientHost`.  A backend driver inherits
one of them and supplies what is genuinely its own:

``time_source``
    any object with a ``.now`` (the simulator, a wall clock);
``_send(dest, message, size)``
    hand ``message`` to the node at the abstract address ``dest``, tagged
    with ``self.current_trace``; ``size`` is the message's
    :func:`~repro.core.common.kernel.message_size` where a server's counters
    already took it, ``None`` from a client, which sends uncounted;
``_arm_timer(timer, trace)`` (servers)
    call ``fire_timer(timer.tag, timer.payload, trace)`` once, ``timer.delay``
    seconds from now;
``_completed(result)`` (clients)
    what follows a finished operation — the simulated closed loop issues the
    next one, the asyncio client resolves a future.

The drivers are :mod:`repro.sim.drivers`, :mod:`repro.runtime.nodes` and
the scripted one of :mod:`repro.theory.executions`, which holds every send
and timer and delivers them in the order a proof's schedule dictates.
Because all of them run this code, a protocol cannot behave differently on
one backend by accident of its driver.

The per-message path is a contract with everything that attaches to it from
outside (the layered benchmark's timing proxies, the golden simulator runs):

* **Read at every use**, never cached in a bound method at construction:
  ``host.kernel``, ``host.generator``, ``host.metrics``, ``host.checker``,
  ``kernel.store`` and ``cluster.transport`` — plain attributes a caller may
  swap on a live node (the benchmark wraps each in a proxy after construction;
  a read that bypassed ``kernel.store.latest`` would vanish from its numbers).
* **One kernel entry call per delivery**, in delivery order —
  ``on_message`` / ``on_timer`` / ``start_operation`` — returning a
  ``list`` of ``Send`` / ``SetTimer`` / ``Complete`` instances that is run in
  emission order; every ``Send`` leaves through ``self._send``.  Messages,
  effects and outcomes are records (:mod:`repro.core.common.records`):
  frozen dataclasses built through their slots.  Addresses are interned
  records — one object per value, compared and hashed by value — so a route
  (a kernel's tables, a host's ``addr``, a transport's or the topology's node
  table, a decoded envelope) is found by identity, never by ``__eq__``.
* **May be precomputed**, because nothing outside can observe it and it never
  changes: a kernel's routes (its address tables), its message-type handler
  table, a partitioner's key memo.  Frames that only forward are folded away:
  a delivery costs one host frame (``dispatch``), one kernel entry frame and
  the handler.

This module must stay importable without ``repro.sim`` and without
``asyncio``.
"""

from __future__ import annotations

from typing import Optional

from repro.causal.checker import RecordedPut, RecordedRead, RecordedRot
from repro.core.common.kernel import (
    Addr,
    ClientAddr,
    ClientKernel,
    Complete,
    Effect,
    Send,
    ServerAddr,
    ServerKernel,
    SetTimer,
    message_size,
)
from repro.errors import ProtocolError
from repro.obs.events import EFFECT, MSG_RECV, MSG_SEND, OP_FINISH, OP_START


class KernelHost:
    """What both roles share: the effect interpreter and inbound dispatch."""

    #: Overhead counters that ``Send`` effects are accounted to.  Servers
    #: expose their kernel's; clients send uncounted.
    counters = None

    def __init__(self, kernel, time_source, node_id: str, addr: Addr) -> None:
        self.kernel = kernel
        self.time_source = time_source
        self.node_id = node_id
        self.dc_id = kernel.dc_id
        self.addr = addr
        #: Event bus (see :mod:`repro.obs`), attached by the cluster builder
        #: when tracing is enabled; ``None`` keeps every emit site to one
        #: attribute load plus a None check.
        self.tracer = None
        #: Trace id of the input being served; outgoing messages and armed
        #: timers inherit it.  Always ``None`` when tracing is disabled.
        self.current_trace: Optional[str] = None

    # ---------------------------------------------------------------- effects
    def run_effects(self, effects: list[Effect]) -> None:
        """Carry out a kernel's effects, strictly in emission order."""
        if not effects:
            return
        tracer = self.tracer
        counters = self.counters
        for effect in effects:
            # Most frequent first: several sends per message served, one
            # completion per operation, a timer only when Cure blocks.
            if isinstance(effect, Send):
                message = effect.message
                size = None
                if counters is not None:
                    size = message_size(message)
                    counters.messages_sent += 1
                    counters.bytes_sent += size
                if tracer is not None:
                    tracer.emit(self.node_id, MSG_SEND,
                                trace=self.current_trace,
                                name=type(message).__name__, dc=self.dc_id)
                self._send(effect.dest, message, size)
            elif isinstance(effect, Complete):
                self._finish(effect)
            elif isinstance(effect, SetTimer):
                if tracer is not None:
                    tracer.emit(self.node_id, EFFECT,
                                trace=self.current_trace,
                                name=f"set-timer:{effect.tag}", dc=self.dc_id)
                # The timer carries the current trace so timer-deferred work
                # (Cure put-wait, rot-block) keeps its operation's trace;
                # always None when tracing is disabled.
                self._arm_timer(effect, self.current_trace)
            else:
                self._reject(effect)

    def _reject(self, effect: object) -> None:
        raise ProtocolError(f"{self.node_id} cannot execute effect {effect!r}")

    # Servers never complete operations and clients arm no timers: a role
    # that meets the other's effect rejects it.
    def _arm_timer(self, timer: SetTimer, trace: Optional[str]) -> None:
        self._reject(timer)

    def _finish(self, effect: Complete) -> None:
        self._reject(effect)

    def _send(self, dest: Addr, message: object,
              size: Optional[int]) -> None:
        raise NotImplementedError

    # ---------------------------------------------------------------- inbound
    def dispatch(self, sender: Addr, message: object,
                 trace: Optional[str]) -> None:
        """Serve one delivered message: adopt its trace, feed the kernel,
        run the effects.  Each role spells this out (their kernels' entry
        points differ), so that a delivery costs one host frame."""
        raise NotImplementedError

    def _trace_recv(self, kernel, message: object,
                    trace: Optional[str]) -> None:
        kernel.current_trace = trace
        self.tracer.emit(self.node_id, MSG_RECV, trace=trace,
                         name=type(message).__name__, dc=self.dc_id)


class ServerHost(KernelHost):
    """Hosts one partition-server kernel."""

    def __init__(self, kernel: ServerKernel, time_source) -> None:
        super().__init__(kernel, time_source, kernel.node_id,
                         ServerAddr(kernel.dc_id, kernel.partition_index))
        self.partition_index = kernel.partition_index

    @property
    def store(self):
        """The kernel-owned multi-version store (inspection/preload)."""
        return self.kernel.store

    @property
    def counters(self):
        """The kernel-owned overhead counters."""
        return self.kernel.counters

    def dispatch(self, sender: Addr, message: object,
                 trace: Optional[str]) -> None:
        self.current_trace = trace
        kernel = self.kernel
        if self.tracer is not None:
            self._trace_recv(kernel, message, trace)
        self.run_effects(
            kernel.on_message(sender, message, self.time_source.now))

    def fire_timer(self, tag: str, payload: object = None,
                   trace: Optional[str] = None) -> None:
        """Serve a timer: a one-shot adopts the trace captured when it was
        armed, a periodic one passes none (background protocol work runs
        outside any operation's trace)."""
        self.current_trace = trace
        kernel = self.kernel
        if self.tracer is not None:
            kernel.current_trace = trace
        self.run_effects(kernel.on_timer(tag, payload, self.time_source.now))


class ClientHost(KernelHost):
    """Hosts one client kernel: one operation in flight at a time."""

    def __init__(self, kernel: ClientKernel, time_source, generator, metrics,
                 checker) -> None:
        super().__init__(kernel, time_source, kernel.client_id,
                         ClientAddr(kernel.client_id))
        self.generator = generator
        self.metrics = metrics
        self.checker = checker
        self.sequence = 0
        #: The operation in flight (``None`` when idle) and the outcome of
        #: the last one that completed.
        self.operation = None
        self.outcome = None
        self._op_started_at = 0.0

    def dispatch(self, sender: Addr, message: object,
                 trace: Optional[str]) -> None:
        self.current_trace = trace
        kernel = self.kernel
        if self.tracer is not None:
            self._trace_recv(kernel, message, trace)
        self.run_effects(kernel.on_message(message, self.time_source.now))

    # ------------------------------------------------------------------ issue
    def issue(self, operation) -> None:
        """Start ``operation``; its completion arrives as a ``Complete``
        effect of a later :meth:`dispatch`."""
        self.operation = operation
        self.sequence += 1
        self.metrics.note_issue(operation.is_put)
        kernel = self.kernel
        tracer = self.tracer
        if tracer is not None:
            # The trace id minted here propagates through the kernel's
            # effects, the network, and back (see :mod:`repro.obs`).
            trace = f"{self.node_id}#{self.sequence}"
            self.current_trace = trace
            kernel.current_trace = trace
            tracer.emit(self.node_id, OP_START, trace=trace,
                        name=operation.kind, dc=self.dc_id,
                        data=(("key", operation.keys[0]),))
        self._op_started_at = now = self.time_source.now
        self.run_effects(kernel.start_operation(operation, self.sequence, now))

    # --------------------------------------------------------------- complete
    def _finish(self, effect: Complete) -> None:
        """Record the finished operation, then let the backend carry on."""
        result = effect.result
        tracer = self.tracer
        checker = self.checker
        if effect.op == "put":
            self.metrics.record_put(self._op_started_at, self.time_source.now)
            if tracer is not None:
                tracer.emit(self.node_id, OP_FINISH, trace=self.current_trace,
                            name="put", dc=self.dc_id,
                            data=(("key", result.key),))
            if checker is not None:
                # ``dependencies`` is the kernel's causal-context snapshot
                # from *before* the PUT subsumed it — the context the checker
                # must attribute to it.
                checker.record_put(RecordedPut(
                    key=result.key, timestamp=result.timestamp,
                    origin_dc=result.origin_dc, client=self.node_id,
                    sequence=self.sequence,
                    dependencies=result.dependencies))
        else:
            self.metrics.record_rot(self._op_started_at, self.time_source.now)
            if tracer is not None:
                tracer.emit(self.node_id, OP_FINISH, trace=self.current_trace,
                            name="rot", dc=self.dc_id)
            if checker is not None:
                reads = tuple(RecordedRead(key=read.key,
                                           timestamp=read.timestamp,
                                           origin_dc=read.origin_dc)
                              for read in result.results.values())
                checker.record_rot(RecordedRot(
                    rot_id=result.rot_id, client=self.node_id,
                    sequence=self.sequence, reads=reads))
        self.operation = None
        self.outcome = result
        self._completed(result)

    def _completed(self, result) -> None:
        raise NotImplementedError


__all__ = ["ClientHost", "KernelHost", "ServerHost"]

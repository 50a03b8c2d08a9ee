"""Pluggable message transports for the real-time backend.

The middle of the three-layer message path (wire -> transport -> runtime): a
:class:`Transport` delivers kernel :class:`~repro.core.common.kernel.Send`
effects between nodes identified by abstract addresses
(:class:`~repro.core.common.kernel.ServerAddr` /
:class:`~repro.core.common.kernel.ClientAddr`), without the kernels or the
cluster knowing whether the destination lives in the same event loop or in
another OS process.

Two implementations:

* :class:`InprocTransport` — every node is local; ``send`` is a dictionary
  lookup plus an append to the cluster's run queue.
* :class:`TcpTransport` — local nodes plus a peer table mapping remote
  addresses to ``(host, port)`` endpoints.  Remote sends *coalesce*: each
  one joins the destination endpoint's pending list, which is flushed at
  the :class:`~repro.wire.batch.FlushPolicy`'s count/byte thresholds or
  when the event loop next goes idle (one ``call_soon`` hop).  Every flush
  is one :mod:`batch frame <repro.wire.batch>` — one length prefix, one
  queue hop, one socket write for the whole burst, however many envelopes
  it holds.  Frames go to a per-peer connection that is
  opened lazily and written by a dedicated drain task, so the synchronous
  ``send`` path never blocks a kernel.  Every listener of a deployment is
  bound before any peer learns its endpoint, so a connection is attempted
  once: a refused connect means the peer is gone, and the link fails with
  a :class:`~repro.errors.TransportError` naming the endpoint.  Inbound
  connections are served by one handler per peer; graceful shutdown
  flushes every pending list and outbound queue (bounded) before closing,
  after which ``send`` raises.
  Every flush is a ``batch_flush`` trace event and every batch frame read
  a ``batch_recv``; per-message ``msg_send``/``msg_recv`` events stay with
  the nodes.

Both are single-loop objects: all methods except the constructor must be
called from the event loop that runs the cluster.
"""

from __future__ import annotations

import asyncio
import socket
from abc import ABC, abstractmethod
from typing import Optional, Union

from repro.core.common.kernel import Addr, ClientAddr, ServerAddr, message_size
from repro.core.common.records import record
from repro.errors import ConfigurationError, TransportError
from repro.obs.events import BATCH_FLUSH, BATCH_RECV
from repro.wire.batch import (
    DEFAULT_FLUSH_POLICY,
    BatchFrame,
    FlushPolicy,
    encode_batch,
)
from repro.wire.codec import decode, register_wire_type
from repro.wire.framing import frame, read_frame

#: Reserved wire type ids of the runtime layer (kept out of the message and
#: dynamic ranges so every process agrees on them without import-order luck).
_WIRE_ID_SERVER_ADDR = 512
_WIRE_ID_CLIENT_ADDR = 513
_WIRE_ID_ENVELOPE = 514

register_wire_type(ServerAddr, type_id=_WIRE_ID_SERVER_ADDR)
register_wire_type(ClientAddr, type_id=_WIRE_ID_CLIENT_ADDR)


@record
class Envelope:
    """One routed message on the wire: sender, destination, payload.

    ``trace`` carries the causal trace id of the operation the payload
    belongs to (see :mod:`repro.obs`); ``None`` when tracing is disabled.
    """

    sender: Optional[Addr]
    dest: Addr
    payload: object
    trace: Optional[str] = None


register_wire_type(Envelope, type_id=_WIRE_ID_ENVELOPE)

#: Bound on flushing one peer's outbound queue during graceful shutdown.
FLUSH_TIMEOUT_SECONDS = 5.0


def _unroutable(dest: Addr) -> ConfigurationError:
    """The error for a destination no routing table knows."""
    if isinstance(dest, ServerAddr):
        return ConfigurationError(
            f"no server at DC {dest.dc} partition {dest.partition}")
    if isinstance(dest, ClientAddr):
        return ConfigurationError(f"unknown client {dest.client_id!r}")
    return ConfigurationError(f"cannot route to {dest!r}")


class Transport(ABC):
    """Message delivery between nodes addressed by :class:`Addr`."""

    def __init__(self) -> None:
        self._local: dict[Addr, object] = {}
        #: First delivery/connection error; surfaced through the cluster's
        #: ``first_failure`` so a broken link fails the run with its cause.
        self.failure: Optional[BaseException] = None
        #: Optional :class:`~repro.obs.bus.EventBus` for transport-level
        #: ``batch_flush``/``batch_recv`` events; attached by the cluster.
        self.tracer = None

    def register_local(self, addr: Addr, node) -> None:
        """Attach a node (anything with ``deliver(sender, message, trace)``)."""
        self._local[addr] = node

    def local_addrs(self) -> tuple[Addr, ...]:
        """Addresses of every locally attached node."""
        return tuple(self._local)

    @abstractmethod
    def send(self, sender: Optional[Addr], dest: Addr, message: object,
             trace: Optional[str] = None) -> None:
        """Deliver ``message`` to ``dest`` (synchronous, non-blocking).

        ``trace`` is opaque observability metadata carried alongside the
        message; transports must deliver it unchanged (or ``None``).
        """

    async def start(self) -> None:
        """Bring up any I/O resources; idempotent."""

    async def stop(self) -> None:
        """Tear down I/O resources gracefully; idempotent."""


class InprocTransport(Transport):
    """All nodes share one event loop; delivery is a run-queue append."""

    def send(self, sender: Optional[Addr], dest: Addr, message: object,
             trace: Optional[str] = None) -> None:
        node = self._local.get(dest)
        if node is None:
            raise _unroutable(dest)
        node.deliver(sender, message, trace)


class _PeerLink:
    """One lazily connected outbound TCP connection with a drain task."""

    _CLOSE = object()

    def __init__(self, transport: "TcpTransport",
                 endpoint: tuple[str, int]) -> None:
        self.transport = transport
        self.endpoint = endpoint
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task = asyncio.ensure_future(self._run())
        self.task.add_done_callback(self._done)

    def enqueue(self, data: bytes) -> None:
        self.queue.put_nowait(data)

    async def _run(self) -> None:
        host, port = self.endpoint
        try:
            _reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to peer {host}:{port}: {exc}") from exc
        try:
            while True:
                data = await self.queue.get()
                if data is self._CLOSE:
                    break
                writer.write(data)
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    def _done(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return
        error = task.exception()
        if error is not None and self.transport.failure is None:
            self.transport.failure = error

    async def close(self) -> None:
        """Flush queued frames (bounded), then close the connection."""
        self.queue.put_nowait(self._CLOSE)
        try:
            await asyncio.wait_for(asyncio.shield(self.task),
                                   FLUSH_TIMEOUT_SECONDS)
        except asyncio.TimeoutError:
            self.task.cancel()
            try:
                await self.task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        except Exception:  # noqa: BLE001 - already captured via _done
            pass


class _Pending:
    """What one peer endpoint has buffered since its last flush."""

    __slots__ = ("envelopes", "bytes", "flush_scheduled")

    def __init__(self) -> None:
        self.envelopes: list[Envelope] = []
        self.bytes = 0
        self.flush_scheduled = False


class TcpTransport(Transport):
    """Length-prefixed wire frames over asyncio TCP streams.

    Lifecycle: construct, :meth:`start` (serves ``listener``, a bound and
    listening socket, or binds a free loopback port without one; ``host``
    and ``port`` are then the served endpoint), :meth:`set_peers` with the
    cluster-wide address table, then ``send`` freely; :meth:`stop` flushes
    and closes everything, a listener that was never served included, and
    is terminal: a remote ``send`` after it raises.

    ``batch`` sets the coalescing thresholds, nothing else: ``True`` is
    :data:`~repro.wire.batch.DEFAULT_FLUSH_POLICY`, a
    :class:`~repro.wire.batch.FlushPolicy` is used as given.
    """

    def __init__(self, listener: Optional[socket.socket] = None,
                 batch: Union[bool, FlushPolicy] = True) -> None:
        super().__init__()
        if batch is True:
            batch = DEFAULT_FLUSH_POLICY
        elif not isinstance(batch, FlushPolicy):
            raise ConfigurationError(
                f"batch must be True or a FlushPolicy, got {batch!r}: every "
                f"remote send coalesces, the unbatched path is gone")
        self.flush_policy: FlushPolicy = batch
        self._listener = listener
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._endpoints: dict[Addr, tuple[str, int]] = {}
        self._links: dict[tuple[str, int], _PeerLink] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._inbound: set[asyncio.Task] = set()
        self._stopped = False
        # Coalescing state per peer endpoint.
        self._pending: dict[tuple[str, int], _Pending] = {}

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self._server is not None:
            return
        listener, self._listener = self._listener, None
        if listener is None:
            listener = socket.create_server(("127.0.0.1", 0))
        self._server = await asyncio.start_server(self._on_connection,
                                                  sock=listener)
        self.host, self.port = listener.getsockname()[:2]

    async def stop(self) -> None:
        self._stopped = True
        for endpoint, pending in self._pending.items():
            self._flush_endpoint(endpoint, pending, raise_errors=False)
        links, self._links = list(self._links.values()), {}
        for link in links:
            await link.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        server, self._server = self._server, None
        if server is not None:
            server.close()
        inbound, self._inbound = list(self._inbound), set()
        for task in inbound:
            task.cancel()
        for task in inbound:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if server is not None:
            # From Python 3.12.1 on this waits for every accepted connection
            # to close, so it follows the handlers that close them.
            await server.wait_closed()

    # ---------------------------------------------------------------- routing
    def set_peers(self, table: dict[Addr, tuple[str, int]]) -> None:
        """Install the remote address table (local nodes take precedence)."""
        for addr, endpoint in table.items():
            if addr not in self._local:
                self._endpoints[addr] = endpoint

    def send(self, sender: Optional[Addr], dest: Addr, message: object,
             trace: Optional[str] = None) -> None:
        node = self._local.get(dest)
        if node is not None:
            node.deliver(sender, message, trace)
            return
        endpoint = self._endpoints.get(dest)
        if endpoint is None:
            raise _unroutable(dest)
        if self._stopped:
            raise TransportError("transport is stopped")
        pending = self._pending.get(endpoint)
        if pending is None:
            pending = self._pending[endpoint] = _Pending()
        pending.envelopes.append(Envelope(sender, dest, message, trace))
        pending.bytes += message_size(message)
        if (len(pending.envelopes) >= self.flush_policy.max_messages
                or pending.bytes >= self.flush_policy.max_bytes):
            self._flush_endpoint(endpoint, pending)
        elif not pending.flush_scheduled:
            asyncio.get_running_loop().call_soon(
                self._idle_flush, endpoint, pending)
            pending.flush_scheduled = True

    def _link_for(self, endpoint: tuple[str, int]) -> _PeerLink:
        link = self._links.get(endpoint)
        if link is not None and link.task.done():
            # The drain task died (peer unreachable/crashed): enqueueing
            # more frames would buffer unboundedly and never send.  Failing
            # the sender here surfaces the root cause within one operation
            # instead of after a 30s timeout.
            raise TransportError(
                f"connection to peer {endpoint[0]}:{endpoint[1]} is down "
                f"({self.failure or 'drain task exited'})")
        if link is None:
            link = self._links[endpoint] = _PeerLink(self, endpoint)
        return link

    def _idle_flush(self, endpoint: tuple[str, int],
                    pending: _Pending) -> None:
        pending.flush_scheduled = False
        self._flush_endpoint(endpoint, pending, raise_errors=False)

    def _flush_endpoint(self, endpoint: tuple[str, int], pending: _Pending,
                        *, raise_errors: bool = True) -> None:
        """Write the endpoint's pending envelopes as one batch frame.

        With ``raise_errors`` off (idle and shutdown flushes, which have no
        caller to fail) link errors are parked in :attr:`failure` instead of
        raised.
        """
        envelopes = pending.envelopes
        if not envelopes:
            return
        pending.envelopes = []
        pending.bytes = 0
        try:
            link = self._link_for(endpoint)
        except TransportError as exc:
            if raise_errors:
                raise
            if self.failure is None:
                self.failure = exc
            return
        link.enqueue(frame(encode_batch(envelopes)))
        if self.tracer is not None:
            self.tracer.emit("transport", BATCH_FLUSH, data=(
                ("count", len(envelopes)),
                ("peer", f"{endpoint[0]}:{endpoint[1]}")))

    # ---------------------------------------------------------------- inbound
    def _deliver_envelope(self, envelope: Envelope) -> None:
        if not isinstance(envelope, Envelope):
            raise TransportError(
                f"batch frame carries a {type(envelope).__name__}, "
                f"expected an Envelope")
        node = self._local.get(envelope.dest)
        if node is None:
            raise TransportError(
                f"received a message for {envelope.dest!r}, which "
                f"is not attached to this transport")
        node.deliver(envelope.sender, envelope.payload, envelope.trace)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inbound.add(task)
            task.add_done_callback(self._inbound.discard)
        try:
            while True:
                payload = await read_frame(reader)
                if payload is None:
                    break
                decoded = decode(payload)
                if not isinstance(decoded, BatchFrame):
                    raise TransportError(
                        f"expected a batch frame, got "
                        f"{type(decoded).__name__}")
                if self.tracer is not None and decoded.envelopes:
                    self.tracer.emit("transport", BATCH_RECV, data=(
                        ("count", len(decoded)),))
                for envelope in decoded.envelopes:
                    self._deliver_envelope(envelope)
        except asyncio.CancelledError:
            # Cancelled only by stop(); swallowing (rather than re-raising)
            # keeps asyncio.streams' internal done-callback from logging a
            # spurious "Exception in callback" during teardown.
            return
        except Exception as exc:  # noqa: BLE001 - surfaced via failure
            if self.failure is None:
                self.failure = exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass


__all__ = [
    "Envelope",
    "InprocTransport",
    "TcpTransport",
    "Transport",
]

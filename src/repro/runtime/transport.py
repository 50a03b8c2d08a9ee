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
  one is encoded on the spot as a row of the destination endpoint's
  pending :mod:`batch frame <repro.wire.batch>`, which is flushed at the
  :class:`~repro.wire.batch.FlushPolicy`'s count/byte thresholds (the byte
  count is the rows' encoded size) or when the event loop next goes idle
  (one ``call_soon`` hop): one length prefix and one socket write for the
  whole burst, however many messages it holds.  Socket I/O runs on
  ``asyncio.Protocol`` callbacks, with no task per connection: a frame is
  written straight to its peer's connection, which is opened lazily and
  holds frames back only until it is up, so the synchronous ``send`` path
  never blocks a kernel; an inbound connection parses frames out of the
  bytes as they arrive and hands every row to its destination node as it
  is decoded, each address of a frame resolved to its node once.  Every
  listener of a deployment is bound before any peer learns its endpoint,
  so a connection is attempted once: a refused connect means the peer is
  gone, and the link fails with a :class:`~repro.errors.TransportError`
  naming the endpoint, as it does when the peer goes away; the next
  ``send`` to it raises.  Bytes that are no frame, or a stream that ends
  inside one, set :attr:`Transport.failure` to a
  :class:`~repro.errors.WireFormatError`.  Graceful shutdown flushes every
  pending frame and waits for every connection to drain (bounded) before
  closing, after which ``send`` raises.
  Every flush is a ``batch_flush`` trace event and every batch frame read
  a ``batch_recv``; per-message ``msg_send``/``msg_recv`` events stay with
  the nodes.

Both are single-loop objects: all methods except the constructor must be
called from the event loop that runs the cluster.
"""

from __future__ import annotations

import asyncio
import functools
import socket
import struct
from abc import ABC, abstractmethod
from typing import Optional, Union

from repro.core.common.kernel import Addr, ClientAddr, ServerAddr
from repro.errors import ConfigurationError, TransportError, WireFormatError
from repro.obs.events import BATCH_FLUSH, BATCH_RECV
from repro.wire.batch import (
    DEFAULT_FLUSH_POLICY,
    BatchWriter,
    Envelope,
    FlushPolicy,
    read_batch,
)
from repro.wire.framing import LENGTH_BYTES, MAX_FRAME_BYTES

#: Bound on flushing one peer's connection during graceful shutdown.
FLUSH_TIMEOUT_SECONDS = 5.0

_unpack_length = struct.Struct(">I").unpack_from


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


class _PeerLink(asyncio.Protocol):
    """One lazily connected outbound TCP connection.

    Frames go straight to the socket's ``asyncio.Transport``; only frames
    sent before the connection is up wait in :attr:`backlog`.  The link is
    *down* once :attr:`error` is set: the connection was refused, or the
    peer went away.
    """

    def __init__(self, owner: "TcpTransport",
                 endpoint: tuple[str, int]) -> None:
        self.owner = owner
        self.endpoint = endpoint
        #: The rows sent since the last flush, and whether an idle flush of
        #: them is scheduled.
        self.pending = BatchWriter()
        self.flush_scheduled = False
        self.socket: Optional[asyncio.Transport] = None
        self.backlog: list[bytes] = []
        self.error: Optional[BaseException] = None
        loop = asyncio.get_running_loop()
        #: Resolved by ``connection_lost``.
        self.lost = loop.create_future()
        self.connecting = loop.create_task(self._connect())

    async def _connect(self) -> None:
        host, port = self.endpoint
        try:
            await asyncio.get_running_loop().create_connection(
                lambda: self, host, port)
        except OSError as exc:
            self._down(TransportError(
                f"cannot connect to peer {host}:{port}: {exc}"), exc)

    def _down(self, error: TransportError, cause: Optional[BaseException]
              ) -> None:
        """Mark the link down; an I/O error is the transport's failure."""
        self.backlog = []
        if self.error is None:
            self.error = error
        if cause is not None and self.owner.failure is None:
            self.owner.failure = error

    def down(self) -> TransportError:
        """What a send on this link raises once it is down."""
        host, port = self.endpoint
        return TransportError(
            f"connection to peer {host}:{port} is down ({self.error})")

    def write(self, data: bytes) -> None:
        if self.socket is not None:
            self.socket.write(data)
        else:
            self.backlog.append(data)

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.socket = transport
        backlog, self.backlog = self.backlog, []
        if backlog:
            transport.write(b"".join(backlog))

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        host, port = self.endpoint
        self._down(TransportError(
            f"connection to peer {host}:{port} lost"
            + (f": {exc}" if exc is not None else "")), exc)
        if not self.lost.done():
            self.lost.set_result(None)

    async def close(self) -> None:
        """Flush written frames, then close the connection; both within
        :data:`FLUSH_TIMEOUT_SECONDS`."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + FLUSH_TIMEOUT_SECONDS
        if not self.connecting.done():
            await asyncio.wait((self.connecting,),
                               timeout=FLUSH_TIMEOUT_SECONDS)
            if not self.connecting.done():
                self.connecting.cancel()
                await asyncio.gather(self.connecting, return_exceptions=True)
        if self.socket is None:
            return
        self.socket.close()
        await asyncio.wait((self.lost,),
                           timeout=max(0.0, deadline - loop.time()))
        if not self.lost.done():
            self.socket.abort()
            await self.lost


class _InboundStream(asyncio.Protocol):
    """One accepted connection: length-prefixed batch frames, parsed out of
    the bytes as they arrive and delivered row by row."""

    def __init__(self, owner: "TcpTransport") -> None:
        self.owner = owner
        self.socket: Optional[asyncio.Transport] = None
        #: The unparsed tail of the stream: part of one frame.
        self.buffer = bytearray()
        #: Bytes :attr:`buffer` must hold before a frame can be parsed.
        self.wanted = LENGTH_BYTES
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.socket = transport
        self.owner._inbound.add(self)

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        if buffer:
            buffer += data
            if len(buffer) < self.wanted:
                return
            data = bytes(buffer)
            buffer.clear()
        pos, size = 0, len(data)
        try:
            while size - pos >= LENGTH_BYTES:
                (length,) = _unpack_length(data, pos)
                if length > MAX_FRAME_BYTES:
                    raise WireFormatError(
                        f"frame length prefix {length} exceeds the "
                        f"{MAX_FRAME_BYTES}-byte limit (corrupt stream?)")
                start = pos + LENGTH_BYTES
                if start + length > size:
                    self.wanted = LENGTH_BYTES + length
                    break
                pos = start + length
                self.owner._receive(data[start:pos])
            else:
                self.wanted = LENGTH_BYTES
        except Exception as exc:  # noqa: BLE001 - surfaced via failure
            self._fail(exc)
            return
        if pos < size:
            buffer += memoryview(data)[pos:]

    def eof_received(self) -> None:
        buffer = self.buffer
        if buffer:
            if len(buffer) < LENGTH_BYTES:
                where = (f"a frame length prefix "
                         f"({len(buffer)}/{LENGTH_BYTES} bytes)")
            else:
                where = (f"a frame payload ({len(buffer) - LENGTH_BYTES}/"
                         f"{self.wanted - LENGTH_BYTES} bytes)")
            self._fail(WireFormatError(f"stream ended inside {where}"))

    def _fail(self, error: BaseException) -> None:
        self.buffer.clear()
        if self.owner.failure is None:
            self.owner.failure = error
        self.socket.close()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.owner._inbound.discard(self)
        if exc is not None and self.owner.failure is None:
            self.owner.failure = exc
        if not self.lost.done():
            self.lost.set_result(None)


class TcpTransport(Transport):
    """Length-prefixed batch frames over asyncio TCP connections.

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
        self._inbound: set[_InboundStream] = set()
        self._stopped = False

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self._server is not None:
            return
        listener, self._listener = self._listener, None
        if listener is None:
            listener = socket.create_server(("127.0.0.1", 0))
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _InboundStream(self), sock=listener)
        self.host, self.port = listener.getsockname()[:2]

    async def stop(self) -> None:
        self._stopped = True
        links, self._links = list(self._links.values()), {}
        for link in links:
            # A link that went down on an error has parked it already; one
            # whose peer closed first has nobody left to flush to.
            if link.error is None:
                self._flush(link, raise_errors=False)
        for link in links:
            await link.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        server, self._server = self._server, None
        if server is not None:
            server.close()
        inbound = list(self._inbound)
        for stream in inbound:
            stream.socket.close()
        for stream in inbound:
            await stream.lost
        if server is not None:
            # From Python 3.12.1 on this waits for every accepted connection
            # to close, so it follows the closes above.
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
        link = self._links.get(endpoint)
        if link is None or link.error is not None:
            link = self._link_for(endpoint)
        pending = link.pending
        pending.add(sender, dest, message, trace)
        if (pending.count >= self.flush_policy.max_messages
                or len(pending.rows) >= self.flush_policy.max_bytes):
            self._flush(link)
        elif not link.flush_scheduled:
            asyncio.get_running_loop().call_soon(self._idle_flush, link)
            link.flush_scheduled = True

    def _link_for(self, endpoint: tuple[str, int]) -> _PeerLink:
        """A new link to ``endpoint``; raises if the current one is down."""
        if self._stopped:
            raise TransportError("transport is stopped")
        link = self._links.get(endpoint)
        if link is not None:
            # The peer is unreachable or gone: buffering more frames would
            # never send them.  Failing the sender here surfaces the root
            # cause within one operation instead of after a 30s timeout.
            raise link.down()
        link = self._links[endpoint] = _PeerLink(self, endpoint)
        return link

    def _idle_flush(self, link: _PeerLink) -> None:
        link.flush_scheduled = False
        self._flush(link, raise_errors=False)

    def _flush(self, link: _PeerLink, *, raise_errors: bool = True) -> None:
        """Write the link's pending rows as one batch frame.

        With ``raise_errors`` off (idle and shutdown flushes, which have no
        caller to fail) errors are parked in :attr:`failure` instead of
        raised.
        """
        pending = link.pending
        if not pending.count:
            return
        link.pending = BatchWriter()
        try:
            if link.error is not None:
                raise link.down()
            link.write(pending.framed())
        except (TransportError, WireFormatError) as exc:
            if raise_errors:
                raise
            if self.failure is None:
                self.failure = exc
            return
        if self.tracer is not None:
            self.tracer.emit("transport", BATCH_FLUSH, data=(
                ("count", pending.count),
                ("peer", f"{link.endpoint[0]}:{link.endpoint[1]}")))

    # ---------------------------------------------------------------- inbound
    def _receive(self, payload: bytes) -> None:
        """Deliver one inbound batch frame, row by row."""
        count = read_batch(payload, self._route)
        if self.tracer is not None and count:
            self.tracer.emit("transport", BATCH_RECV, data=(
                ("count", count),))

    def _route(self, dest: object):
        """The ``deliver`` of the local node at ``dest``."""
        node = self._local.get(dest)
        if node is None:
            return functools.partial(_misrouted, dest)
        return node.deliver


def _misrouted(dest: object, *_row: object) -> None:
    raise TransportError(
        f"received a message for {dest!r}, which is not attached to this "
        f"transport")


__all__ = [
    "Envelope",
    "InprocTransport",
    "TcpTransport",
    "Transport",
]

"""The asyncio OSD server: a real-socket serving tier for one target.

``python -m repro.net`` starts one on localhost against a fresh in-memory
flash array; library users embed :class:`OsdServer` directly.

Protocol: each TCP connection carries framed PDUs
(:func:`repro.osd.transport.frame_pdu`): a 4-byte length prefix, then a
command PDU (:mod:`repro.osd.wire`). Requests carry a ``seq`` id; the
response echoes it, so a connection is fully pipelined — many commands in
flight, responses in completion order.

Robustness model:

- **Size guards** — the frame length prefix is validated before the body is
  buffered; oversized or unparseable frames kill the connection (the byte
  stream is unsynchronized). A malformed PDU *inside* a valid frame gets a
  structured ``FAIL`` reply and the connection lives on.
- **Backpressure** — a per-connection semaphore bounds in-flight commands;
  when full, the server simply stops reading that socket, pushing back
  through TCP. An optional global cap answers ``SERVER_BUSY`` sense data
  instead of executing, so overload is visible to clients as a retryable
  status, not a dropped connection.
- **Graceful shutdown** — stop accepting, drain in-flight commands up to a
  deadline, then close connections.
- **Stats endpoint** — a ``#QUERY#`` control write naming
  :data:`~repro.osd.types.SERVICE_STATS_OBJECT` is answered by the server
  with a JSON :class:`~repro.net.stats.ServiceStats` snapshot (connections,
  in-flight depth, retries seen, timeouts, p50/p99 service latency).

Throughput model (zero-copy + coalescing PR): the read side pulls large
chunks into a zero-copy :class:`~repro.osd.transport.FrameDecoder` (PDUs
are memoryview slices of the receive buffer; the data segment is copied
exactly once, into the command payload), and the write side batches — every
response is enqueued on a per-connection :class:`~repro.net.flush.StreamFlusher`
as ``[frame prefix, header, payload]`` segments and shipped with one
``writelines`` + one ``drain`` per event-loop tick instead of one drain per
command. One server is one process and one event loop;
:mod:`repro.cluster` (``python -m repro.cluster --shards N``) serves more
than one shard.

Protocol port: each connection is an
:class:`asyncio.BufferedProtocol` — the socket ``recv_into``\\ s straight
into the :class:`~repro.osd.transport.FrameDecoder`'s buffer (no
StreamReader double-buffer, no reader-task wakeup per chunk) and frames
are served synchronously from ``buffer_updated``. Back-pressure is
symmetric: the connection's in-flight bound and the transport's
``pause_writing`` both gate ``pause_reading``/``resume_reading``, and the
flusher's standby drain parks on the transport's resume signal.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from typing import Awaitable, Callable, Deque, Optional, Set, Tuple

from repro.errors import ControlMessageError, OsdError, WireError
from repro.net.flush import StreamFlusher
from repro.net.stats import ServiceStats
from repro.osd import wire
from repro.osd.commands import OsdCommand, Write
from repro.osd.control import QueryMessage, parse_control_message
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse, OsdTarget
from repro.osd.transport import FrameDecoder, frame_parts
from repro.osd.types import CONTROL_OBJECT, SERVICE_STATS_OBJECT, ObjectId

__all__ = ["ControlReadProvider", "FaultHook", "OsdServer", "RECV_CHUNK_BYTES"]

#: Read-side chunk size: the floor on the writable buffer tail handed to
#: the transport, so one ``recv_into`` can land many pipelined frames.
RECV_CHUNK_BYTES = 256 * 1024

#: Test/chaos hook called after a command executes, before its response is
#: sent. May sleep to delay the response past the client's timeout. Return
#: ``None`` for normal service, ``"drop"`` to sever the connection without
#: replying (executed but unacknowledged — the ambiguous case that makes
#: non-idempotent retries unsafe), or ``"timeout"`` to answer
#: ``SERVER_TIMEOUT`` sense data instead of the real response. Faults land
#: *after* execution so an abandoned attempt can never execute late and
#: clobber a newer write.
FaultHook = Callable[[OsdCommand, Optional[int]], Awaitable[Optional[str]]]

#: A server-side read endpoint: called with no arguments when a ``#QUERY#``
#: control write names its registered object id; returns the reply payload.
#: This is how the service layer exposes introspection data (stats, cluster
#: maps) through the ordinary OSD command vocabulary instead of a side
#: protocol — mirroring the paper's OID-0x10004 control-object pattern.
ControlReadProvider = Callable[[], bytes]


class _Connection(asyncio.BufferedProtocol):
    """Server-side protocol for one client socket.

    The transport fills the frame decoder's buffer directly
    (``get_buffer``/``buffer_updated``); complete frames are decoded and
    served synchronously in the same callback. Commands that need the
    fault-hook task path are admitted through a backlog bounded by the
    server's per-connection in-flight limit — while the backlog is
    non-empty (or the transport reports write pressure) the socket is
    paused, which is the protocol-world version of the old
    "stop reading while the semaphore is full" back-pressure.
    """

    def __init__(self, server: "OsdServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = FrameDecoder(server.max_pdu_bytes)
        self.tasks: Set[asyncio.Task] = set()
        self.dropped = False
        self.flusher: Optional[StreamFlusher] = None
        #: Decoded-but-unserved commands beyond the in-flight bound.
        self._backlog: Deque[Tuple[Optional[int], OsdCommand]] = deque()
        self._in_flight = 0
        self._reading_paused = False
        self._write_paused = False
        self._eof_drain: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # asyncio.BufferedProtocol interface
    # ------------------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        sock = transport.get_extra_info("socket")
        if sock is not None:
            # Response traffic is latency-sensitive: never sit in Nagle's
            # buffer waiting for an ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.transport = transport
        self.flusher = StreamFlusher(
            transport, on_error=self.drop, on_flush=self.server._count_flush
        )
        self.server._register(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.decoder.get_buffer(max(sizehint, RECV_CHUNK_BYTES))

    def buffer_updated(self, nbytes: int) -> None:
        self.decoder.buffer_updated(nbytes)
        if self.dropped or self.server._draining:
            return
        try:
            for frame in self.decoder.frames():
                self.server._accept_frame(self, frame)
                if self.dropped or self.server._draining:
                    return
        except WireError:
            # Oversized/poisoned frame: the stream cannot be resynced.
            self.server.stats.wire_errors += 1
            self.drop()

    def eof_received(self) -> Optional[bool]:
        # Connection-level EOF: finish what was already accepted, then
        # close from our side (True keeps the transport open for writes).
        if self.tasks or self._backlog:
            self._eof_drain = asyncio.ensure_future(self._drain_then_close())
            return True
        self.drop()
        return False

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.dropped = True
        self._backlog.clear()
        if self._eof_drain is not None:
            self._eof_drain.cancel()
        for task in self.tasks:
            task.cancel()
        if self.flusher is not None:
            self.flusher.abort()
        self.server._unregister(self)

    def pause_writing(self) -> None:
        # The transport's write buffer crossed its high-water mark: park
        # the flusher's standby drain and stop accepting bytes whose
        # responses would pile onto an already-pressured buffer.
        self._write_paused = True
        if self.flusher is not None:
            self.flusher.pause_writing()
        self._update_read_gate()

    def resume_writing(self) -> None:
        self._write_paused = False
        if self.flusher is not None:
            self.flusher.resume_writing()
        self._update_read_gate()

    # ------------------------------------------------------------------
    # Serving support
    # ------------------------------------------------------------------
    def send(self, response: OsdResponse, seq: Optional[int]) -> None:
        """Enqueue one response for the connection's next coalesced flush."""
        if self.dropped or self.flusher is None:
            return
        self.flusher.send(frame_parts(wire.encode_response_parts(response, seq=seq)))

    def enqueue(self, seq: Optional[int], command: OsdCommand) -> None:
        """Admit one command to the fault-hook task path."""
        self._backlog.append((seq, command))
        self._pump()

    def _pump(self) -> None:
        while self._backlog and self._in_flight < self.server.max_in_flight:
            seq, command = self._backlog.popleft()
            self._in_flight += 1
            task = asyncio.ensure_future(
                self.server._serve_command(self, seq, command)
            )
            self.tasks.add(task)
            task.add_done_callback(self._task_done)
        self._update_read_gate()

    def _task_done(self, task: asyncio.Task) -> None:
        self.tasks.discard(task)
        self._in_flight -= 1
        if not self.dropped:
            self._pump()

    def _update_read_gate(self) -> None:
        """Pause the socket while back-pressured, resume when clear."""
        want_pause = self._write_paused or bool(self._backlog)
        if self.transport is None or self.transport.is_closing():
            return
        if want_pause and not self._reading_paused:
            self.transport.pause_reading()
            self._reading_paused = True
        elif not want_pause and self._reading_paused and not self.dropped:
            self.transport.resume_reading()
            self._reading_paused = False

    async def _drain_then_close(self) -> None:
        """Post-EOF drain: serve accepted commands, then close the socket."""
        deadline = asyncio.get_running_loop().time() + self.server.drain_timeout
        while self.tasks or self._backlog:
            pending = set(self.tasks)
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                break
            if pending:
                await asyncio.wait(pending, timeout=remaining)
            else:
                await asyncio.sleep(0)
        self.drop()

    def drop(self) -> None:
        """Sever the connection immediately (fault injection / fatal error).

        Already-queued responses are pushed into the transport first;
        ``close()`` flushes the transport buffer before the FIN, so a
        drained-then-dropped connection still delivers its replies.
        """
        self.dropped = True
        self._backlog.clear()
        if self.flusher is not None:
            self.flusher.abort()
        if self.transport is not None and not self.transport.is_closing():
            self.transport.close()


class OsdServer:
    """Serves one :class:`~repro.osd.target.OsdTarget` over TCP."""

    def __init__(
        self,
        target: OsdTarget,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 32,
        max_total_in_flight: Optional[int] = None,
        max_pdu_bytes: int = wire.MAX_PDU_BYTES,
        drain_timeout: float = 5.0,
        fault_hook: Optional[FaultHook] = None,
        fault_plan: "object | None" = None,
    ) -> None:
        """
        Args:
            fault_hook: explicit chaos hook (see :data:`FaultHook`).
            fault_plan: a :class:`repro.faults.FaultPlan` to derive the hook
                from when no explicit one is given — the same declarative
                plan that drives the simulated array maps onto wire-level
                faults (torn writes → dropped acks, transient read errors →
                timeouts, fail-slow → delayed responses).
        """
        self.target = target
        self.host = host
        self.port = port
        self.max_in_flight = max_in_flight
        self.max_total_in_flight = max_total_in_flight
        self.max_pdu_bytes = max_pdu_bytes
        self.drain_timeout = drain_timeout
        if fault_hook is None and fault_plan is not None:
            from repro.faults import make_net_fault_hook

            fault_hook = make_net_fault_hook(fault_plan)
        self.fault_hook = fault_hook
        self.stats = ServiceStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._draining = False
        self._control_reads: dict = {}
        self.register_control_read(SERVICE_STATS_OBJECT, self.stats.to_json)

    def register_control_read(
        self, object_id: ObjectId, provider: ControlReadProvider
    ) -> None:
        """Expose ``provider()``'s payload at ``object_id`` via ``#QUERY#``.

        Subclasses and embedders use this to add introspection endpoints
        (the shard servers register the cluster map here) without touching
        the command dispatch path.
        """
        self._control_reads[object_id] = provider

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; resolves the actual port for port 0."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Graceful stop: stop accepting, drain in-flight, then close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        while True:
            pending = [task for conn in self._connections for task in conn.tasks]
            remaining = deadline - loop.time()
            if not pending or remaining <= 0:
                break
            await asyncio.wait(pending, timeout=remaining)
        for conn in list(self._connections):
            conn.drop()
        # Let the transports deliver connection_lost and unregister the
        # connections before we return.
        await asyncio.sleep(0)

    async def __aenter__(self) -> "OsdServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------
    # Per-connection serving
    # ------------------------------------------------------------------
    def _register(self, conn: _Connection) -> None:
        self._connections.add(conn)
        self.stats.connections_total += 1
        self.stats.connections_active += 1

    def _unregister(self, conn: _Connection) -> None:
        if conn in self._connections:
            self._connections.discard(conn)
            self.stats.connections_active -= 1

    def _count_flush(self) -> None:
        self.stats.flushes += 1

    def _accept_frame(self, conn: _Connection, frame: memoryview) -> None:
        """Decode one framed PDU and serve it (inline or via a task).

        Runs synchronously inside ``buffer_updated``: the memoryview is
        only valid until the decoder's next batch, so decoding (which
        copies the payload out) happens before anything can interleave.
        """
        try:
            seq, retry, command = wire.decode_command_pdu(frame)
        except WireError:
            # The frame boundary held, so the stream is still good:
            # answer a structured failure and keep serving.
            self.stats.wire_errors += 1
            conn.send(OsdResponse(SenseCode.FAIL), seq=wire.salvage_seq(frame))
            return
        if retry:
            self.stats.retries_seen += 1
        if (
            self.max_total_in_flight is not None
            and self.stats.in_flight >= self.max_total_in_flight
        ):
            self.stats.busy_rejections += 1
            conn.send(OsdResponse(SenseCode.SERVER_BUSY), seq=seq)
            return
        if self.fault_hook is None:
            # Fast path: execution is synchronous, so a task per command
            # buys nothing but scheduler overhead. Serving inline also
            # means every command in this receive chunk lands its response
            # in the same coalesced flush.
            self._serve_inline(conn, seq, command)
            return
        # Backpressure: the connection pauses its socket while commands
        # are backlogged beyond the in-flight bound.
        conn.enqueue(seq, command)

    def _serve_inline(
        self, conn: _Connection, seq: Optional[int], command: OsdCommand
    ) -> None:
        """Hook-free serving: execute and enqueue without a task round trip."""
        self.stats.begin_command()
        started = time.perf_counter()
        ok = False
        try:
            response = self._execute(command)
            ok = response.ok
            conn.send(response, seq=seq)
        finally:
            self.stats.end_command(time.perf_counter() - started, ok)

    async def _serve_command(
        self, conn: _Connection, seq: Optional[int], command: OsdCommand
    ) -> None:
        self.stats.begin_command()
        started = time.perf_counter()
        ok = False
        try:
            response = self._execute(command)
            if self.fault_hook is not None:
                action = await self.fault_hook(command, seq)
                if action == "drop":
                    conn.drop()
                    return
                if action == "timeout":
                    self.stats.timeouts += 1
                    conn.send(OsdResponse(SenseCode.SERVER_TIMEOUT), seq=seq)
                    return
            ok = response.ok
            # No per-command drain: the connection's flusher ships every
            # response enqueued this tick with one writelines + one drain.
            conn.send(response, seq=seq)
        finally:
            self.stats.end_command(time.perf_counter() - started, ok)

    def _execute(self, command: OsdCommand) -> OsdResponse:
        control_reply = self._intercept_control_read(command)
        if control_reply is not None:
            return control_reply
        try:
            return command.apply(self.target)
        except OsdError:
            return OsdResponse(SenseCode.FAIL)

    def _intercept_control_read(self, command: OsdCommand) -> Optional[OsdResponse]:
        """Answer ``#QUERY#`` writes naming a registered read endpoint."""
        if not isinstance(command, Write) or command.object_id != CONTROL_OBJECT:
            return None
        try:
            message = parse_control_message(command.payload)
        except ControlMessageError:
            return None  # let the target report the malformed control write
        if isinstance(message, QueryMessage):
            provider = self._control_reads.get(message.object_id)
            if provider is not None:
                return OsdResponse(SenseCode.OK, payload=provider())
        return None

    def __repr__(self) -> str:
        state = "draining" if self._draining else "serving"
        return (
            f"OsdServer({self.host}:{self.port}, {state}, "
            f"connections={self.stats.connections_active}, "
            f"in_flight={self.stats.in_flight})"
        )

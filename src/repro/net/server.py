"""The asyncio OSD server: a real-socket serving tier for one target.

``python -m repro.net`` starts one on localhost against a fresh in-memory
flash array; library users embed :class:`OsdServer` directly.

Protocol: each TCP connection carries framed PDUs
(:func:`repro.osd.transport.frame_parts`): a 4-byte length prefix, then a
command PDU (:mod:`repro.osd.wire`). Requests carry a ``seq`` id; the
response echoes it, so a connection is fully pipelined.

There is one serving path, made of protocol callbacks and timers — no
task per command or per connection. Each connection is an
:class:`asyncio.BufferedProtocol`: the socket ``recv_into``\\ s straight
into a zero-copy :class:`~repro.osd.transport.FrameDecoder`, and
``buffer_updated`` decodes and executes each complete frame inline
(``command.apply(target)`` is a synchronous call). The response goes on
the connection's :class:`~repro.net.flush.StreamFlusher` (one
``writelines`` per event-loop tick) unless a :data:`FaultHook` asks for
it to be *held*, which is one ``loop.call_later`` timer. A command is
**in flight** from execution until its reply is released, so
``ServiceStats.in_flight`` counts held replies — on every server.

Robustness model:

- **Size guards** — the frame length prefix is validated before the body is
  buffered; oversized or unparseable frames kill the connection (the byte
  stream is unsynchronized). A malformed PDU *inside* a valid frame gets a
  structured ``FAIL`` reply and the connection lives on.
- **One gate** — while a connection holds ``max_in_flight`` replies *or*
  its transport reports write pressure, the frame loop stops — the
  remaining frames stay undecoded and unexecuted in the decoder — and
  the socket is paused, pushing back through TCP; a released reply or
  ``resume_writing`` re-enters the loop. A peer that pipelines reads and
  never reads the answers costs at most the flusher's high-water mark +
  the transport's + one response. The optional global cap answers
  ``SERVER_BUSY`` instead of executing: overload is a retryable status.
- **Half-close** — EOF with replies held or frames gated finishes them,
  then closes.
- **Graceful shutdown** — stop accepting, wait up to :data:`DRAIN_TIMEOUT_S`
  for held replies to go out, then close connections; replies still held
  are abandoned (timers cancelled, commands booked) before ``shutdown``
  returns.
- **Stats endpoint** — a ``#QUERY#`` control write naming
  :data:`~repro.osd.types.SERVICE_STATS_OBJECT` is answered by the server
  with a JSON :class:`~repro.net.stats.ServiceStats` snapshot (connections,
  in-flight depth, retries seen, busy rejections, p50/p99 service latency).

One server is one process and one event loop; :mod:`repro.cluster`
(``python -m repro.cluster --shards N``) serves more than one shard.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import time
from typing import Callable, Dict, Optional, Set, Tuple, Union

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

__all__ = ["ControlReadProvider", "FaultHook", "OsdServer"]

#: How long :meth:`OsdServer.shutdown` waits for held replies to go out.
DRAIN_TIMEOUT_S = 5.0

#: Test/chaos hook, a plain function called after a command executes and
#: before its response is sent. Its verdict: ``None`` for normal service;
#: a number of seconds to *hold* the response that long (the server owns
#: the clock — past the client's timeout, say); or ``"drop"`` to sever the
#: connection without replying (executed but unacknowledged — the
#: ambiguous case that makes non-idempotent retries unsafe). Faults land
#: *after* execution so an abandoned attempt can never execute late and
#: clobber a newer write.
FaultHook = Callable[[OsdCommand, Optional[int]], Union[None, str, float]]

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
    executed synchronously in the same callback, until they run out or
    the gate (:meth:`_gated`) closes. Frames behind a closed gate stay in
    the decoder and the socket is paused; releasing a held reply or the
    transport's ``resume_writing`` re-enters the loop.
    """

    def __init__(self, server: "OsdServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = FrameDecoder()
        self.dropped = False
        self.flusher: Optional[StreamFlusher] = None
        #: Executed-but-unanswered replies: token -> (release timer, start).
        self._held: Dict[int, Tuple[asyncio.TimerHandle, float]] = {}
        self._tokens = itertools.count()
        self._write_paused = False
        self._eof = False

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
        self.flusher = StreamFlusher(transport, on_flush=self.server._count_flush)
        self.server._register(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.decoder.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        self.decoder.buffer_updated(nbytes)
        self._serve_frames()

    def eof_received(self) -> bool:
        # Finish what was already received — held replies, gated frames —
        # then close from our side (True keeps the transport open for
        # writes). With the gate open every complete frame has been
        # served, so there is nothing to wait for.
        self._eof = True
        self._sync_socket()
        return not self.dropped

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.drop()
        self.server._unregister(self)

    def pause_writing(self) -> None:
        # The transport's write buffer crossed its high-water mark: stop
        # executing commands whose responses would pile onto it.
        self._write_paused = True
        self._sync_socket()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._serve_frames()

    # ------------------------------------------------------------------
    # Serving support
    # ------------------------------------------------------------------
    def _gated(self) -> bool:
        """The one gate: while it holds, no frame is decoded or executed."""
        return (
            self._write_paused
            or len(self._held) >= self.server.max_in_flight
            or self.dropped
            or self.server._draining
        )

    def _serve_frames(self) -> None:
        """Serve buffered frames until they run out or the gate closes."""
        if not self._gated():
            try:
                for frame in self.decoder.frames():
                    self.server._serve_frame(self, frame)
                    if self._gated():
                        break
            except WireError:
                # Oversized/poisoned frame: the stream cannot be resynced.
                self.server.stats.wire_errors += 1
                self.drop()
        self._sync_socket()

    def _sync_socket(self) -> None:
        """Pause the socket while gated; after EOF, close once idle."""
        transport = self.transport
        if self.dropped or transport is None or transport.is_closing():
            return
        gated = self._gated()
        if self._eof:
            # The transport stopped reading at EOF; what is left is to
            # notice that everything received has been answered.
            if not gated and not self._held:
                self.drop()
        elif gated:
            transport.pause_reading()  # both are no-ops when already so
        else:
            transport.resume_reading()

    def send(self, response: OsdResponse, seq: Optional[int]) -> None:
        """Enqueue one response for the connection's next coalesced flush."""
        if self.dropped or self.flusher is None:
            return
        self.flusher.send(frame_parts(wire.encode_response_parts(response, seq=seq)))

    def hold(
        self, seconds: float, started: float, response: OsdResponse, seq: Optional[int]
    ) -> None:
        """Keep an executed command's reply back on a timer."""
        token = next(self._tokens)
        loop = asyncio.get_running_loop()
        timer = loop.call_later(seconds, self._release, token, response, seq)
        self._held[token] = (timer, started)

    def _release(self, token: int, response: OsdResponse, seq: Optional[int]) -> None:
        _timer, started = self._held.pop(token)
        self.server.stats.end_command(time.perf_counter() - started, response.ok)
        self.send(response, seq)
        self.server._settled()
        self._serve_frames()

    def drop(self) -> None:
        """Sever the connection immediately (fault injection / fatal error).

        Held replies are abandoned — timers cancelled, commands booked as
        executed without a good answer. Already-queued responses are
        pushed into the transport first; ``close()`` flushes the
        transport buffer before the FIN, so a served-then-dropped
        connection still delivers its replies.
        """
        self.dropped = True
        now = time.perf_counter()
        for timer, started in self._held.values():
            timer.cancel()
            self.server.stats.end_command(now - started, False)
        self._held.clear()
        self.server._settled()
        if self.flusher is not None:
            self.flusher.close()
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
        fault_hook: Optional[FaultHook] = None,
    ) -> None:
        """
        Args:
            max_in_flight: held replies at which one connection's gate closes.
            max_total_in_flight: held replies, server-wide, past which
                commands are answered ``SERVER_BUSY`` unexecuted.
            fault_hook: chaos hook (see :data:`FaultHook`).
        """
        self.target = target
        self.host = host
        self.port = port
        self.max_in_flight = max_in_flight
        self.max_total_in_flight = max_total_in_flight
        self.fault_hook = fault_hook
        self.stats = ServiceStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._draining = False
        #: Resolved by :meth:`_settled` when a draining server holds nothing.
        self._idle: Optional[asyncio.Future] = None
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
        """Graceful stop: stop accepting, release held replies, then close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.stats.in_flight:
            self._idle = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(self._idle, DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass  # drop() below abandons what is still held
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

    def _settled(self) -> None:
        """Wake a draining :meth:`shutdown` once no reply is held anywhere."""
        idle = self._idle
        if idle is not None and not idle.done() and not self.stats.in_flight:
            idle.set_result(None)

    def _serve_frame(self, conn: _Connection, frame: memoryview) -> None:
        """Decode one framed PDU, execute it, then answer or hold the answer.

        Runs synchronously inside the connection's frame loop: the
        memoryview is only valid until the decoder's next batch, so
        decoding (which copies the payload out) happens before anything
        can interleave. Serving inline also means every command in one
        receive chunk lands its response in the same coalesced flush.
        """
        stats = self.stats
        try:
            seq, retry, command = wire.decode_command_pdu(frame)
        except WireError:
            # The frame boundary held, so the stream is still good:
            # answer a structured failure and keep serving.
            stats.wire_errors += 1
            conn.send(OsdResponse(SenseCode.FAIL), seq=wire.salvage_seq(frame))
            return
        if retry:
            stats.retries_seen += 1
        if (
            self.max_total_in_flight is not None
            and stats.in_flight >= self.max_total_in_flight
        ):
            stats.busy_rejections += 1
            conn.send(OsdResponse(SenseCode.SERVER_BUSY), seq=seq)
            return
        stats.begin_command()
        started = time.perf_counter()
        ok = held = False
        try:
            response = self._execute(command)
            hook = self.fault_hook
            verdict = hook(command, seq) if hook is not None else None
            if verdict is None:
                ok = response.ok
                conn.send(response, seq=seq)
            elif verdict == "drop":
                conn.drop()
            else:
                conn.hold(verdict, started, response, seq)
                held = True
        finally:
            if not held:
                stats.end_command(time.perf_counter() - started, ok)

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

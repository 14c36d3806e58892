"""The async OSD initiator: pooled, pipelined, timeout- and retry-aware.

:class:`AsyncOsdClient` is the socket-side counterpart of
:class:`~repro.osd.initiator.OsdInitiator`: the same command surface (write
/ read / update / remove / control messages), but executed against a
:class:`~repro.net.server.OsdServer` over TCP.

Reliability model:

- **Connection pool** — ``pool_size`` sockets, round-robin dispatch,
  transparent reconnect of dead connections on the next request (one
  connect per slot at a time; concurrent callers share it).
- **Pipelining** — each connection keeps an in-flight table keyed by the
  PDU sequence id, so many requests overlap on one socket and responses
  may return out of order.
- **Timeouts** — every request carries a deadline; a late response is
  abandoned (and ignored if it eventually arrives).
- **Retry** — idempotent commands (see :mod:`repro.net.retry`) are retried
  with exponential backoff + jitter after timeouts and connection failures.
  ``SERVER_BUSY`` means the server *did not execute* the command, so busy
  replies are retried for every command type. Non-idempotent commands
  surface the failure instead — replaying them could turn an
  executed-but-unacknowledged success into a phantom error.
- **Coalescing** — symmetric with the server: requests are enqueued on a
  per-connection :class:`~repro.net.flush.StreamFlusher` as un-copied
  ``[frame prefix, header, payload]`` segments, so pipelined commands
  issued in the same event-loop tick share one ``writelines`` (which joins
  the segments into one copy before CPython 3.12 and sends them with
  ``sendmsg`` from 3.12); responses
  land straight in the zero-copy
  :class:`~repro.osd.transport.FrameDecoder` via the
  :class:`asyncio.BufferedProtocol` receive path (no StreamReader
  double-buffer, no reader task).
- **No write-side back-pressure** — a request that does not fit the socket
  waits in the transport's write buffer and ``submit`` is never blocked on
  it; closed-loop callers (one outstanding request per caller) are what
  bounds that buffer today.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import OsdError, WireError
from repro.flash.array import ArrayIoResult
from repro.net.flush import StreamFlusher
from repro.net.retry import RetryPolicy, is_idempotent
from repro.net.stats import parse_stats_payload
from repro.osd import commands, wire
from repro.osd.control import QueryMessage, SetClassMessage
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse
from repro.osd.transport import FrameDecoder, frame_parts
from repro.osd.types import CONTROL_OBJECT, ObjectId, ROOT_OBJECT

__all__ = ["AsyncOsdClient", "ClientStats", "OsdServiceError"]

#: Sense codes the client deliberately surfaces to callers instead of
#: branching on (``tests/osd/test_sense_contract.py`` requires every code
#: the server tier emits to be handled in the client tier or listed here):
#: the recovery pair is the payload of :meth:`AsyncOsdClient.recovery_status`
#: — the caller polls until STARTED becomes ENDED — and the two
#: space-pressure codes are the target's write-admission answers, which the
#: cache manager turns into evictions at the call site.
SENSE_HANDLED_BY_DEFAULT = (
    SenseCode.RECOVERY_STARTED,
    SenseCode.RECOVERY_ENDED,
    SenseCode.CACHE_FULL,
    SenseCode.REDUNDANCY_FULL,
)


class OsdServiceError(OsdError):
    """A command could not be completed within the client's retry budget."""


class _ConnectionLostError(OsdServiceError):
    """The socket could not be opened, or died while requests were in
    flight (retryable inside :meth:`AsyncOsdClient.submit`)."""


@dataclass
class ClientStats:
    """Client-side reliability counters."""

    requests: int = 0
    retries: int = 0
    timeouts: int = 0
    connection_errors: int = 0
    busy_replies: int = 0
    exhausted: int = 0
    deadline_exhausted: int = 0


class _Connection(asyncio.BufferedProtocol):
    """One pooled socket with a pipelined in-flight table.

    A :class:`asyncio.BufferedProtocol`: the transport ``recv_into``\\ s
    straight into the frame decoder's buffer, and responses resolve their
    pending futures synchronously in ``buffer_updated`` — no reader task,
    no per-chunk copy.
    """

    def __init__(self) -> None:
        self.decoder = FrameDecoder()
        self.pending: Dict[int, asyncio.Future] = {}
        self.closed = False
        self.transport: Optional[asyncio.Transport] = None
        self.flusher: Optional[StreamFlusher] = None
        self._lost = asyncio.Event()

    # ------------------------------------------------------------------
    # asyncio.BufferedProtocol interface
    # ------------------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        sock = transport.get_extra_info("socket")
        if sock is not None:
            # Request/response traffic: never sit in Nagle's buffer.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.transport = transport
        self.flusher = StreamFlusher(transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.decoder.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        self.decoder.buffer_updated(nbytes)
        try:
            for pdu in self.decoder.frames():
                seq, response = wire.decode_response_pdu(pdu)
                future = self.pending.pop(seq, None) if seq is not None else None
                if future is not None and not future.done():
                    future.set_result(response)
                # else: a response we stopped waiting for (late after a
                # timeout) or an unsolicited error reply — drop it.
        except WireError:
            self._fail_pending()

    def eof_received(self) -> bool:
        self._fail_pending()
        return False

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._fail_pending()
        self._lost.set()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _fail_pending(self) -> None:
        self.closed = True
        if self.flusher is not None:
            self.flusher.close()
        for future in self.pending.values():
            if not future.done():
                future.set_exception(
                    _ConnectionLostError("connection lost with requests in flight")
                )
        self.pending.clear()
        if self.transport is not None and not self.transport.is_closing():
            self.transport.close()

    async def request(
        self,
        command: commands.OsdCommand,
        seq: int,
        retry: int,
        timeout: Optional[float] = None,
    ) -> OsdResponse:
        if self.closed or self.transport is None or self.transport.is_closing():
            raise _ConnectionLostError("connection already closed")
        # Encode before registering: a WireError (e.g. oversized PDU) must
        # surface to the caller, not strand a pending future.
        parts = frame_parts(wire.encode_command_parts(command, seq=seq, retry=retry))
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self.pending[seq] = future
        # Deadline as a plain timer on the future instead of wait_for's
        # wrapper task: one heap entry per request, no extra task switch.
        handle = (
            loop.call_later(timeout, self._expire, seq)
            if timeout is not None
            else None
        )
        try:
            # Coalesced send: the flusher batches this with every other
            # request enqueued this tick. Socket failures surface through
            # connection_lost failing the pending futures.
            self.flusher.send(parts)
            return await future
        finally:
            if handle is not None:
                handle.cancel()
            self.pending.pop(seq, None)

    def _expire(self, seq: int) -> None:
        """Deadline fired: abandon the request (a late reply is dropped)."""
        future = self.pending.pop(seq, None)
        if future is not None and not future.done():
            future.set_exception(asyncio.TimeoutError())

    async def close(self) -> None:
        self.closed = True
        if self.flusher is not None:
            self.flusher.close()
        if self.transport is not None:
            if not self.transport.is_closing():
                self.transport.close()
            # The transport flushes its write buffer before the FIN;
            # connection_lost marks the lost event once it is truly down.
            await self._lost.wait()


class AsyncOsdClient:
    """Client-side handle to one networked OSD server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 4,
        timeout: float = 2.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.stats = ClientStats()
        self._pool: List[Optional[_Connection]] = [None] * pool_size
        #: One connect in flight per slot, so concurrent callers share one
        #: new socket instead of each opening (and leaking) their own.
        self._connecting: Dict[int, asyncio.Lock] = {}
        self._dispatch = itertools.count()
        self._seq = itertools.count(1)

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    async def connect(self) -> None:
        """Open the whole pool eagerly (optional; submit reconnects lazily).

        Raises :class:`OsdServiceError` when a socket cannot be opened.
        """
        for slot in range(self.pool_size):
            await self._connection(slot)

    async def _connection(self, slot: int) -> _Connection:
        lock = self._connecting.get(slot)
        if lock is None:
            lock = self._connecting[slot] = asyncio.Lock()
        async with lock:
            conn = self._pool[slot]
            if conn is None or conn.closed:
                loop = asyncio.get_running_loop()
                try:
                    _transport, conn = await loop.create_connection(
                        _Connection, self.host, self.port
                    )
                except OSError as exc:
                    raise _ConnectionLostError(str(exc)) from exc
                self._pool[slot] = conn
            return conn

    async def aclose(self) -> None:
        for conn in self._pool:
            if conn is not None:
                await conn.close()
        self._pool = [None] * self.pool_size

    async def __aenter__(self) -> "AsyncOsdClient":
        await self.connect()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Core submission path
    # ------------------------------------------------------------------
    async def submit(
        self,
        command: commands.OsdCommand,
        *,
        deadline: Optional[float] = None,
    ) -> OsdResponse:
        """Execute one command with pipelining, timeout, and retry.

        The client's ``timeout`` bounds each *attempt*; ``deadline`` (an
        absolute ``loop.time()`` instant) bounds the whole call — backoff
        sleeps and retry attempts together can never overrun it. Attempt
        timeouts are clipped to the remaining budget, and a retry whose
        backoff would land past the deadline is abandoned instead of slept.
        """
        self.stats.requests += 1
        timeout = self.timeout
        loop = asyncio.get_running_loop() if deadline is not None else None
        delays: Optional[List[float]] = None  # built on first retry only
        attempts = self.retry.max_attempts
        failure: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                if delays is None:
                    delays = list(self.retry.delays())
                delay = delays[attempt - 1]
                if loop is not None and loop.time() + delay >= deadline:
                    self.stats.deadline_exhausted += 1
                    break  # the backoff alone would blow the budget
                self.stats.retries += 1
                await asyncio.sleep(delay)
            attempt_timeout = timeout
            if loop is not None:
                remaining = deadline - loop.time()
                if remaining <= 0.0:
                    self.stats.deadline_exhausted += 1
                    break
                attempt_timeout = min(timeout, remaining)
            try:
                response = await self._attempt(command, attempt, attempt_timeout)
            except asyncio.TimeoutError as exc:
                self.stats.timeouts += 1
                failure = OsdServiceError(
                    f"command timed out after {timeout}s: {command!r}"
                )
                failure.__cause__ = exc
                if not is_idempotent(command):
                    break
                continue
            except _ConnectionLostError as exc:
                self.stats.connection_errors += 1
                failure = OsdServiceError(f"connection failed: {exc}")
                failure.__cause__ = exc
                if not is_idempotent(command):
                    break
                continue
            if response.sense is SenseCode.SERVER_BUSY:
                # The server refused without executing: always retryable.
                self.stats.busy_replies += 1
                failure = OsdServiceError("server busy after all retries")
                continue
            return response
        self.stats.exhausted += 1
        if failure is None:
            # The deadline expired before the first attempt could even run.
            raise OsdServiceError(
                f"operation deadline exhausted before completion: {command!r}"
            )
        raise failure

    async def _attempt(
        self, command: commands.OsdCommand, attempt: int, timeout: float
    ) -> OsdResponse:
        slot = next(self._dispatch) % self.pool_size
        conn = self._pool[slot]
        if conn is None or conn.closed:
            conn = await self._connection(slot)
        seq = next(self._seq)
        return await conn.request(command, seq, retry=attempt, timeout=timeout)

    # ------------------------------------------------------------------
    # Initiator-style command surface
    # ------------------------------------------------------------------
    async def create_partition(self, pid: int) -> OsdResponse:
        return await self.submit(commands.CreatePartition(pid))

    async def write(
        self, object_id: ObjectId, payload: bytes, class_id: Optional[int] = None
    ) -> OsdResponse:
        return await self.submit(commands.Write(object_id, payload, class_id))

    async def read(self, object_id: ObjectId) -> Tuple[Optional[bytes], OsdResponse]:
        response = await self.submit(commands.Read(object_id))
        return response.payload, response

    async def update(self, object_id: ObjectId, offset: int, data: bytes) -> OsdResponse:
        return await self.submit(commands.Update(object_id, offset, data))

    async def remove(self, object_id: ObjectId) -> OsdResponse:
        return await self.submit(commands.Remove(object_id))

    async def list_partition(self, pid: int) -> Tuple[List[ObjectId], OsdResponse]:
        """Member object ids of one partition; ``([], response)`` on FAIL."""
        response = await self.submit(commands.ListPartition(pid))
        if not response.ok or not response.payload:
            return [], response
        members = []
        for line in response.payload.decode("ascii").splitlines():
            pid_text, _, oid_text = line.partition("/")
            members.append(ObjectId(int(pid_text, 16), int(oid_text, 16)))
        return members, response

    async def set_class(self, object_id: ObjectId, class_id: int) -> OsdResponse:
        message = SetClassMessage(object_id, class_id)
        return await self.submit(commands.Write(CONTROL_OBJECT, message.encode()))

    async def query(
        self,
        object_id: ObjectId,
        operation: str = "R",
        offset: int = 0,
        size: int = 0,
    ) -> Tuple[SenseCode, ArrayIoResult]:
        message = QueryMessage(object_id, operation, offset, size)
        response = await self.submit(commands.Write(CONTROL_OBJECT, message.encode()))
        return response.sense, response.io

    async def recovery_status(self) -> SenseCode:
        sense, _ = await self.query(ROOT_OBJECT)
        return sense

    async def service_stats(self) -> Dict[str, object]:
        """Fetch the server's ServiceStats snapshot via the stats endpoint."""
        from repro.osd.types import SERVICE_STATS_OBJECT

        message = QueryMessage(SERVICE_STATS_OBJECT, "R")
        response = await self.submit(commands.Write(CONTROL_OBJECT, message.encode()))
        if not response.ok:
            raise OsdServiceError(f"stats query failed with sense {response.sense!r}")
        return parse_stats_payload(response.payload)

    def __repr__(self) -> str:
        open_count = sum(1 for c in self._pool if c is not None and not c.closed)
        return (
            f"AsyncOsdClient({self.host}:{self.port}, pool={open_count}/"
            f"{self.pool_size}, requests={self.stats.requests})"
        )

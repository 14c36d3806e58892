"""Outbound write coalescing for one transport.

One ``transport.write`` per PDU makes syscall and event-loop overhead,
not data movement, the throughput ceiling at small payloads.
:class:`StreamFlusher` batches instead: producers enqueue framed PDUs as
buffer *segments* (no concatenation), and the first ``send`` of an
event-loop tick schedules one ``call_soon`` callback that ships
everything enqueued in that tick with a single ``writelines``.

Memory stays bounded by :data:`HIGH_WATER_BYTES`: once the outbox
reaches it, ``send`` pushes the buffered segments into the transport
immediately, so the flusher itself never holds more than the mark plus
one PDU. Every ``writelines`` — an early push, the end-of-tick batch or
the last push of :meth:`StreamFlusher.close` — counts as one flush.

The flusher is a list and a callback — no task, nothing awaited. It
applies no back-pressure of its own: past the outbox the bytes sit in the
transport's write buffer, and the transport reports pressure to its
protocol (``pause_writing``/``resume_writing``), which is where the
server gates its frame loop (:mod:`repro.net.server`).
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional, Sequence

from repro.osd.wire import Buffer

__all__ = ["StreamFlusher"]

#: Outbox bound before segments are pushed to the transport early.
HIGH_WATER_BYTES = 256 * 1024


class StreamFlusher:
    """Coalesces the frames sent in one event-loop tick into one ``writelines``.

    Args:
        transport: the connection's :class:`asyncio.Transport`.
        on_flush: called after every ``writelines`` (stats hooks).
    """

    def __init__(
        self,
        transport: asyncio.Transport,
        *,
        on_flush: Optional[Callable[[], None]] = None,
    ) -> None:
        self.transport = transport
        self.on_flush = on_flush
        #: ``writelines`` calls made so far.
        self.flushes = 0
        #: Frames accepted via :meth:`send`.
        self.sends = 0
        self._outbox: List[Buffer] = []
        self._outbox_bytes = 0
        self._flush_scheduled = False
        self._loop = asyncio.get_event_loop()
        self._closed = False

    def send(self, parts: Sequence[Buffer]) -> None:
        """Enqueue one framed PDU (as segments) for the next batch."""
        if self._closed or self.transport.is_closing():
            return
        self.sends += 1
        self._outbox.extend(parts)
        for part in parts:
            self._outbox_bytes += len(part)
        if self._outbox_bytes >= HIGH_WATER_BYTES:
            self._push()
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush_batch)

    def _push(self) -> None:
        """Move the outbox into the transport's write buffer: one flush."""
        buffers, self._outbox = self._outbox, []
        self._outbox_bytes = 0
        if buffers and not self.transport.is_closing():
            self.transport.writelines(buffers)
            self.flushes += 1
            if self.on_flush is not None:
                self.on_flush()

    def _flush_batch(self) -> None:
        """End-of-tick flush: one ``writelines`` for what is left of the batch."""
        self._flush_scheduled = False
        if not self._closed:
            self._push()

    def close(self) -> None:
        """Push what is queued and refuse further sends.

        The transport flushes its own write buffer before the FIN, so
        frames sent before ``close()`` are still delivered.
        """
        if not self._closed:
            self._closed = True
            self._push()

"""Stream framing for OSD PDUs.

The paper's prototype emulates OSD with "iSCSI protocol coupled with the
current block-based devices" (§II-A): commands and responses cross the
initiator→target session as serialized PDUs (:mod:`repro.osd.wire`). This
module owns what a byte stream needs on top of that — the real sockets in
:mod:`repro.net` are its users.

Each PDU travels as a 4-byte big-endian length prefix followed by the PDU
bytes. The PDU's internal header length does not bound its data segment,
so the outer frame is what lets a stream receiver know where one PDU ends
and the next begins. :func:`frame_pdu` / :func:`frame_parts` wrap a PDU
(joined, or as un-copied segments for ``writelines``, which joins them
itself before CPython 3.12 and sends them with ``sendmsg`` from 3.12);
:func:`frame_length` validates a prefix against the size limit *before*
the body is buffered; :class:`FrameDecoder` reassembles frames from
arbitrary chunks, zero-copy, and doubles as the receive buffer of an
:class:`asyncio.BufferedProtocol`.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Sequence

from repro.errors import WireError
from repro.osd import wire
from repro.osd.wire import Buffer

__all__ = [
    "FRAME_PREFIX_BYTES",
    "FrameDecoder",
    "frame_pdu",
    "frame_parts",
    "frame_length",
]

_FRAME = struct.Struct(">I")

#: Size of the outer length prefix every framed PDU carries.
FRAME_PREFIX_BYTES = _FRAME.size


def frame_pdu(pdu: Buffer, max_bytes: int = wire.MAX_PDU_BYTES) -> bytes:
    """Wrap a PDU for a byte stream: 4-byte big-endian length + PDU."""
    if len(pdu) > max_bytes:
        raise WireError(
            f"refusing to frame a {len(pdu)}-byte PDU (limit {max_bytes})"
        )
    return _FRAME.pack(len(pdu)) + bytes(pdu)


def frame_parts(parts: Sequence[Buffer], max_bytes: int = wire.MAX_PDU_BYTES) -> List[Buffer]:
    """Frame a PDU given as segments, without concatenating them.

    The vectored twin of :func:`frame_pdu`: returns ``[prefix, *parts]``
    ready for ``StreamWriter.writelines``, so framing never copies a large
    payload segment. The transport's ``writelines`` still joins the
    segments once before CPython 3.12; from 3.12 it sends them with
    ``sendmsg``.
    """
    total = sum(len(part) for part in parts)
    if total > max_bytes:
        raise WireError(
            f"refusing to frame a {total}-byte PDU (limit {max_bytes})"
        )
    framed: List[Buffer] = [_FRAME.pack(total)]
    framed.extend(part for part in parts if len(part))
    return framed


def frame_length(
    prefix: Buffer, max_bytes: int = wire.MAX_PDU_BYTES, offset: int = 0
) -> int:
    """Validate and decode one frame's length prefix.

    Accepts any buffer-protocol object; ``offset`` lets stream decoders
    read the prefix in place instead of slicing it out first.
    """
    if len(prefix) - offset < FRAME_PREFIX_BYTES:
        raise WireError("truncated frame: missing length prefix")
    (length,) = _FRAME.unpack_from(prefix, offset)
    if length > max_bytes:
        raise WireError(
            f"declared frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    return length


class FrameDecoder:
    """Incremental stream-to-frame reassembler, zero-copy.

    Feed arbitrary byte chunks in; iterate complete PDUs out. Oversized
    frames raise :class:`~repro.errors.WireError` immediately — as soon as
    the poisoned length prefix arrives, before buffering the body.

    **Buffer ownership:** :meth:`frames` yields :class:`memoryview` slices
    over the decoder's internal buffer — no per-frame copy. A yielded view
    is valid only until the next :meth:`feed` or :meth:`frames` call, at
    which point the decoder reclaims the consumed region: every
    previously yielded view is *released*, so stale use raises
    ``ValueError`` instead of silently reading recycled bytes. Consumers
    that need a frame beyond the current batch must ``bytes(frame)`` it.

    **Protocol mode (asyncio port):** the decoder doubles as the receive
    buffer for an :class:`asyncio.BufferedProtocol` — :meth:`get_buffer`
    hands the transport a writable view of the internal buffer's free
    tail and :meth:`buffer_updated` commits the received byte count, so
    the socket ``recv_into``\\ s straight into the decoder with no
    intermediate chunk copy at all. The buffer therefore tracks a
    *capacity* (``len(self._buffer)``) separate from the *valid length*
    (``self._length``): the transport keeps a view over the buffer while
    it delivers ``buffer_updated``, and a :class:`bytearray` with
    exported views may be mutated but never resized — so compaction (a
    same-size move) is safe anywhere, while growth happens only in
    :meth:`get_buffer`/:meth:`feed`, when no transport view is
    outstanding.
    """

    #: Floor on the writable tail handed to transports — the selector
    #: loop passes ``sizehint=-1``, and tiny buffers mean tiny reads.
    MIN_RECV_BYTES = 64 * 1024

    def __init__(self, max_bytes: int = wire.MAX_PDU_BYTES) -> None:
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        #: Valid bytes at the front of ``_buffer``; the rest is spare
        #: capacity for :meth:`get_buffer`.
        self._length = 0
        #: Bytes of the valid region already yielded as frames
        #: (compacted lazily).
        self._consumed = 0
        self._exported: List[memoryview] = []

    def _reclaim(self) -> None:
        """Invalidate handed-out views and drop the consumed prefix."""
        for view in self._exported:
            view.release()
        self._exported.clear()
        if self._consumed:
            remaining = self._length - self._consumed
            if remaining:
                # Same-size slice move: compacts without resizing, so it
                # is legal even mid-``buffer_updated``.
                self._buffer[:remaining] = self._buffer[
                    self._consumed : self._length
                ]
            self._length = remaining
            self._consumed = 0

    def feed(self, data: Buffer) -> None:
        self._reclaim()
        need = self._length + len(data)
        if need > len(self._buffer):
            self._buffer += bytes(need - len(self._buffer))
        self._buffer[self._length : need] = data
        self._length = need

    def get_buffer(self, sizehint: int) -> memoryview:
        """Hand the transport a writable view of the buffer's free tail."""
        self._reclaim()
        want = max(sizehint, self.MIN_RECV_BYTES)
        free = len(self._buffer) - self._length
        if free < want:
            self._buffer += bytes(want - free)
        return memoryview(self._buffer)[self._length :]

    def buffer_updated(self, nbytes: int) -> None:
        """Commit ``nbytes`` the transport wrote into the last view."""
        self._length += nbytes

    def frames(self) -> Iterator[memoryview]:
        """Yield every complete PDU currently buffered, as memoryviews."""
        self._reclaim()
        while self._length - self._consumed >= FRAME_PREFIX_BYTES:
            length = frame_length(self._buffer, self.max_bytes, offset=self._consumed)
            start = self._consumed + FRAME_PREFIX_BYTES
            end = start + length
            if self._length < end:
                return
            whole = memoryview(self._buffer)
            frame = whole[start:end]
            # Releasing the parent view leaves the slice valid; only the
            # slice pins the buffer against compaction.
            whole.release()
            self._exported.append(frame)
            self._consumed = end
            yield frame


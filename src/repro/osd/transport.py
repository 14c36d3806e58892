"""Stream framing for OSD PDUs.

The paper's prototype emulates OSD with "iSCSI protocol coupled with the
current block-based devices" (§II-A): commands and responses cross the
initiator→target session as serialized PDUs (:mod:`repro.osd.wire`). This
module owns what a byte stream needs on top of that — the real sockets in
:mod:`repro.net` are its users.

Each PDU travels as a 4-byte big-endian length prefix followed by the PDU
bytes. The PDU's internal header length does not bound its data segment,
so the outer frame is what lets a stream receiver know where one PDU ends
and the next begins. :func:`frame_parts` wraps a PDU given as un-copied
segments for ``writelines`` (which joins them itself before CPython 3.12
and sends them with ``sendmsg`` from 3.12); :func:`frame_length`
validates a prefix against :data:`~repro.osd.wire.MAX_PDU_BYTES` *before*
the body is buffered; :class:`FrameDecoder` is the receive buffer of an
:class:`asyncio.BufferedProtocol` and reassembles frames from whatever
chunks the socket delivers, zero-copy.
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
    "RECV_CHUNK_BYTES",
    "frame_parts",
    "frame_length",
]

_FRAME = struct.Struct(">I")

#: Size of the outer length prefix every framed PDU carries.
FRAME_PREFIX_BYTES = _FRAME.size

#: Floor on the writable tail handed to a transport, so one ``recv_into``
#: can land many pipelined frames (the selector loop asks with
#: ``sizehint=-1``).
RECV_CHUNK_BYTES = 256 * 1024


def frame_parts(parts: Sequence[Buffer]) -> List[Buffer]:
    """Frame a PDU given as segments, without concatenating them.

    Returns ``[prefix, *parts]`` ready for ``writelines``, so framing never
    copies a large payload segment. The transport's ``writelines`` still
    joins the segments once before CPython 3.12; from 3.12 it sends them
    with ``sendmsg``.
    """
    total = sum(len(part) for part in parts)
    if total > wire.MAX_PDU_BYTES:
        raise WireError(
            f"refusing to frame a {total}-byte PDU (limit {wire.MAX_PDU_BYTES})"
        )
    framed: List[Buffer] = [_FRAME.pack(total)]
    framed.extend(part for part in parts if len(part))
    return framed


def frame_length(prefix: Buffer, offset: int = 0) -> int:
    """Validate and decode one frame's length prefix.

    Accepts any buffer-protocol object; ``offset`` lets stream decoders
    read the prefix in place instead of slicing it out first.
    """
    if len(prefix) - offset < FRAME_PREFIX_BYTES:
        raise WireError("truncated frame: missing length prefix")
    (length,) = _FRAME.unpack_from(prefix, offset)
    if length > wire.MAX_PDU_BYTES:
        raise WireError(
            f"declared frame of {length} bytes exceeds the "
            f"{wire.MAX_PDU_BYTES}-byte limit"
        )
    return length


class FrameDecoder:
    """Incremental stream-to-frame reassembler, zero-copy.

    The decoder is the receive buffer of an :class:`asyncio.BufferedProtocol`:
    :meth:`get_buffer` hands the transport a writable view of the internal
    buffer's free tail and :meth:`buffer_updated` commits the received byte
    count, so the socket ``recv_into``\\ s straight into the decoder with no
    intermediate chunk copy. :meth:`frames` then yields every complete PDU.
    Oversized frames raise :class:`~repro.errors.WireError` as soon as the
    poisoned length prefix arrives, before the body is buffered.

    **Buffer ownership:** :meth:`frames` yields :class:`memoryview` slices
    over the decoder's internal buffer — no per-frame copy. A yielded view
    is valid only until the next :meth:`get_buffer` or :meth:`frames`
    call, at which point the decoder reclaims the consumed region: every
    previously yielded view is *released*, so stale use raises
    ``ValueError`` instead of silently reading recycled bytes. Consumers
    that need a frame beyond the current batch must ``bytes(frame)`` it.

    The buffer tracks a *capacity* (``len(self._buffer)``) separate from
    the *valid length* (``self._length``): the transport keeps a view over
    the buffer while it delivers ``buffer_updated``, and a
    :class:`bytearray` with exported views may be mutated but never
    resized — so compaction (a same-size move) is safe anywhere, while
    growth happens only in :meth:`get_buffer`, when no transport view is
    outstanding.
    """

    def __init__(self) -> None:
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

    def get_buffer(self, sizehint: int) -> memoryview:
        """Hand the transport a writable view of the buffer's free tail."""
        self._reclaim()
        want = max(sizehint, RECV_CHUNK_BYTES)
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
            length = frame_length(self._buffer, offset=self._consumed)
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

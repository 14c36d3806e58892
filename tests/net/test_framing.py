"""Stream framing: reassembly under arbitrary chunking, size guards.

Bytes reach the decoder the way the event loop delivers them to the
server's and client's protocols: :func:`feed` asks ``get_buffer`` for a
writable view, copies a chunk into it and commits it with
``buffer_updated``. The decoder yields zero-copy ``memoryview`` slices
that are only valid until the next ``get_buffer()``/``frames()`` call, so
every test that keeps a frame copies it first — exactly the contract real
consumers follow. The hypothesis property pins the zero-copy decoder
byte-for-byte against a reference implementation that copies, under
arbitrary chunk splits (including cuts inside the 4-byte length prefix).
"""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WireError
from repro.osd import wire
from repro.osd.transport import (
    FRAME_PREFIX_BYTES,
    RECV_CHUNK_BYTES,
    FrameDecoder,
    frame_length,
    frame_parts,
)

pytestmark = pytest.mark.net

MiB = 1024 * 1024


def framed(pdu):
    """One framed PDU as the bytes the send path puts on the wire."""
    return b"".join(bytes(part) for part in frame_parts([pdu]))


def feed(decoder, data):
    """Deliver ``data`` the way asyncio's selector transport does
    (``_read_ready__get_buffer``): ask for a buffer with ``sizehint=-1``,
    ``recv_into`` it, commit the byte count, and drop the view."""
    data = memoryview(data)
    while data:
        buffer = decoder.get_buffer(-1)
        nbytes = min(len(buffer), len(data))
        buffer[:nbytes] = data[:nbytes]
        buffer.release()
        decoder.buffer_updated(nbytes)
        data = data[nbytes:]


def chunked(data, cuts):
    """Split ``data`` at the (sorted, deduplicated) cut offsets."""
    offsets = sorted({min(cut, len(data)) for cut in cuts})
    pieces = []
    previous = 0
    for offset in offsets:
        pieces.append(data[previous:offset])
        previous = offset
    pieces.append(data[previous:])
    return pieces


class ReferenceFrameDecoder:
    """The pre-zero-copy decoder: accumulate, slice with bytes() copies."""

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data):
        self._buffer += data

    def frames(self):
        while len(self._buffer) >= FRAME_PREFIX_BYTES:
            length = frame_length(bytes(self._buffer[:FRAME_PREFIX_BYTES]))
            if len(self._buffer) < FRAME_PREFIX_BYTES + length:
                return
            pdu = bytes(self._buffer[FRAME_PREFIX_BYTES : FRAME_PREFIX_BYTES + length])
            del self._buffer[: FRAME_PREFIX_BYTES + length]
            yield pdu


class TestFrameDecoder:
    @given(
        pdus=st.lists(st.binary(max_size=200), max_size=8),
        cuts=st.lists(st.integers(min_value=0, max_value=2000), max_size=12),
    )
    def test_reassembles_any_chunking(self, pdus, cuts):
        stream = b"".join(framed(pdu) for pdu in pdus)
        decoder = FrameDecoder()
        received = []
        for piece in chunked(stream, cuts):
            feed(decoder, piece)
            # Frames are views into the decoder's buffer — copy before the
            # next get_buffer() invalidates them.
            received.extend(bytes(frame) for frame in decoder.frames())
        assert received == pdus
        # Nothing is left over: the next frame comes out alone.
        feed(decoder, framed(b"next"))
        assert [bytes(frame) for frame in decoder.frames()] == [b"next"]

    @given(
        pdus=st.lists(st.binary(max_size=200), max_size=8),
        cuts=st.lists(st.integers(min_value=0, max_value=2000), max_size=12),
    )
    def test_matches_reference_decoder(self, pdus, cuts):
        """Zero-copy decoder is byte-identical to the copying reference."""
        stream = b"".join(framed(pdu) for pdu in pdus)
        decoder = FrameDecoder()
        reference = ReferenceFrameDecoder()
        for piece in chunked(stream, cuts):
            feed(decoder, piece)
            reference.feed(piece)
            ours = [bytes(frame) for frame in decoder.frames()]
            theirs = list(reference.frames())
            assert ours == theirs

    def test_cut_inside_the_length_prefix(self):
        decoder = FrameDecoder()
        frame = framed(b"payload after a split prefix")
        feed(decoder, frame[:2])  # half the 4-byte prefix
        assert [bytes(f) for f in decoder.frames()] == []
        feed(decoder, frame[2:])
        assert [bytes(f) for f in decoder.frames()] == [b"payload after a split prefix"]

    def test_frames_are_zero_copy_views(self):
        decoder = FrameDecoder()
        feed(decoder, framed(b"abc"))
        (frame,) = decoder.frames()
        assert isinstance(frame, memoryview)
        assert bytes(frame) == b"abc"

    def test_views_released_on_next_feed(self):
        """Ownership rule: a yielded frame dies at the next get_buffer()."""
        decoder = FrameDecoder()
        feed(decoder, framed(b"first"))
        (frame,) = decoder.frames()
        feed(decoder, framed(b"second"))
        with pytest.raises(ValueError):
            bytes(frame)  # released view

    def test_views_released_on_next_frames_call(self):
        decoder = FrameDecoder()
        feed(decoder, framed(b"one") + framed(b"two"))
        first = next(decoder.frames())
        assert bytes(first) == b"one"
        remaining = [bytes(f) for f in decoder.frames()]
        assert remaining == [b"two"]
        with pytest.raises(ValueError):
            bytes(first)

    def test_partial_frame_stays_buffered(self):
        decoder = FrameDecoder()
        frame = framed(b"hello world")
        feed(decoder, frame[:-3])
        assert list(decoder.frames()) == []
        feed(decoder, frame[-3:])
        assert [bytes(f) for f in decoder.frames()] == [b"hello world"]

    def test_oversized_frame_rejected_at_the_prefix(self):
        # The prefix alone declares one byte past the 64 MiB limit: the
        # decoder refuses before any of the body arrives.
        decoder = FrameDecoder()
        feed(decoder, struct.pack(">I", wire.MAX_PDU_BYTES + 1))
        with pytest.raises(WireError, match="limit"):
            list(decoder.frames())
        assert frame_length(struct.pack(">I", wire.MAX_PDU_BYTES)) == wire.MAX_PDU_BYTES

    def test_receive_buffer_offers_at_least_the_chunk_floor(self):
        decoder = FrameDecoder()
        assert len(decoder.get_buffer(-1)) == RECV_CHUNK_BYTES
        decoder.buffer_updated(0)
        assert len(decoder.get_buffer(2 * RECV_CHUNK_BYTES)) == 2 * RECV_CHUNK_BYTES

    def test_frame_length_validates_prefix(self):
        with pytest.raises(WireError, match="truncated"):
            frame_length(b"\x00")
        assert frame_length(b"\x00\x00\x00\x2a") == 42
        assert FRAME_PREFIX_BYTES == 4


class TestFrameParts:
    def test_vectored_frame_equals_concatenated_frame(self):
        parts = [b"header-bytes", bytearray(b"payload"), memoryview(b"tail")]
        flat = b"".join(bytes(p) for p in parts)
        framed_parts = b"".join(bytes(p) for p in frame_parts(parts))
        assert framed_parts == struct.pack(">I", len(flat)) + flat

    def test_skips_empty_segments(self):
        assert frame_parts([b"", b"abc", b""]) == frame_parts([b"abc"])

    def test_refuses_oversize_total(self):
        # One 1 MiB segment repeated: 64 of them are exactly the limit.
        part = bytes(MiB)
        assert len(frame_parts([part] * (wire.MAX_PDU_BYTES // MiB))) == 65
        with pytest.raises(WireError, match="refusing"):
            frame_parts([part] * (wire.MAX_PDU_BYTES // MiB + 1))

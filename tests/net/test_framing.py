"""Stream framing: reassembly under arbitrary chunking, size guards.

The decoder yields zero-copy ``memoryview`` slices that are only valid
until the next ``feed()``/``frames()`` call, so every test that keeps a
frame copies it first — exactly the contract real consumers follow.
The hypothesis property pins the zero-copy decoder byte-for-byte against
a reference implementation that copies, under arbitrary chunk splits
(including cuts inside the 4-byte length prefix).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WireError
from repro.osd.transport import (
    FRAME_PREFIX_BYTES,
    FrameDecoder,
    frame_length,
    frame_parts,
    frame_pdu,
)

pytestmark = pytest.mark.net


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

    def __init__(self, max_bytes=None):
        self.max_bytes = max_bytes
        self._buffer = bytearray()

    def feed(self, data):
        self._buffer += data

    def frames(self):
        while len(self._buffer) >= FRAME_PREFIX_BYTES:
            kwargs = {} if self.max_bytes is None else {"max_bytes": self.max_bytes}
            length = frame_length(bytes(self._buffer[:FRAME_PREFIX_BYTES]), **kwargs)
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
        stream = b"".join(frame_pdu(pdu) for pdu in pdus)
        decoder = FrameDecoder()
        received = []
        for piece in chunked(stream, cuts):
            decoder.feed(piece)
            # Frames are views into the decoder's buffer — copy before the
            # next feed() invalidates them.
            received.extend(bytes(frame) for frame in decoder.frames())
        assert received == pdus
        # Nothing is left over: the next frame comes out alone.
        decoder.feed(frame_pdu(b"next"))
        assert [bytes(frame) for frame in decoder.frames()] == [b"next"]

    @given(
        pdus=st.lists(st.binary(max_size=200), max_size=8),
        cuts=st.lists(st.integers(min_value=0, max_value=2000), max_size=12),
    )
    def test_matches_reference_decoder(self, pdus, cuts):
        """Zero-copy decoder is byte-identical to the copying reference."""
        stream = b"".join(frame_pdu(pdu) for pdu in pdus)
        decoder = FrameDecoder()
        reference = ReferenceFrameDecoder()
        for piece in chunked(stream, cuts):
            decoder.feed(piece)
            reference.feed(piece)
            ours = [bytes(frame) for frame in decoder.frames()]
            theirs = list(reference.frames())
            assert ours == theirs

    def test_cut_inside_the_length_prefix(self):
        decoder = FrameDecoder()
        frame = frame_pdu(b"payload after a split prefix")
        decoder.feed(frame[:2])  # half the 4-byte prefix
        assert [bytes(f) for f in decoder.frames()] == []
        decoder.feed(frame[2:])
        assert [bytes(f) for f in decoder.frames()] == [b"payload after a split prefix"]

    def test_frames_are_zero_copy_views(self):
        decoder = FrameDecoder()
        decoder.feed(frame_pdu(b"abc"))
        (frame,) = decoder.frames()
        assert isinstance(frame, memoryview)
        assert bytes(frame) == b"abc"

    def test_views_released_on_next_feed(self):
        """Ownership rule: a yielded frame dies at the next feed()."""
        decoder = FrameDecoder()
        decoder.feed(frame_pdu(b"first"))
        (frame,) = decoder.frames()
        decoder.feed(frame_pdu(b"second"))
        with pytest.raises(ValueError):
            bytes(frame)  # released view

    def test_views_released_on_next_frames_call(self):
        decoder = FrameDecoder()
        decoder.feed(frame_pdu(b"one") + frame_pdu(b"two"))
        first = next(decoder.frames())
        assert bytes(first) == b"one"
        remaining = [bytes(f) for f in decoder.frames()]
        assert remaining == [b"two"]
        with pytest.raises(ValueError):
            bytes(first)

    def test_partial_frame_stays_buffered(self):
        decoder = FrameDecoder()
        frame = frame_pdu(b"hello world")
        decoder.feed(frame[:-3])
        assert list(decoder.frames()) == []
        decoder.feed(frame[-3:])
        assert [bytes(f) for f in decoder.frames()] == [b"hello world"]

    def test_oversized_frame_rejected_at_the_prefix(self):
        decoder = FrameDecoder(max_bytes=64)
        decoder.feed(frame_pdu(b"x" * 65, max_bytes=1024))
        with pytest.raises(WireError, match="limit"):
            list(decoder.frames())

    def test_frame_pdu_refuses_oversize(self):
        with pytest.raises(WireError, match="refusing"):
            frame_pdu(b"x" * 65, max_bytes=64)

    def test_frame_length_validates_prefix(self):
        with pytest.raises(WireError, match="truncated"):
            frame_length(b"\x00")
        assert frame_length(b"\x00\x00\x00\x2a") == 42
        assert FRAME_PREFIX_BYTES == 4


class TestFrameParts:
    def test_vectored_frame_equals_concatenated_frame(self):
        parts = [b"header-bytes", bytearray(b"payload"), memoryview(b"tail")]
        flat = b"".join(bytes(p) for p in parts)
        assert b"".join(bytes(p) for p in frame_parts(parts)) == frame_pdu(flat)

    def test_skips_empty_segments(self):
        assert frame_parts([b"", b"abc", b""]) == frame_parts([b"abc"])

    def test_refuses_oversize_total(self):
        with pytest.raises(WireError, match="refusing"):
            frame_parts([b"x" * 40, b"y" * 40], max_bytes=64)

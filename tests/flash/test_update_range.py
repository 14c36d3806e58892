"""Tests for in-place partial updates and the delta/direct parity choice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlashError
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme, ReplicationScheme


def payload_of(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def make_array(num_devices=5, chunk_size=64):
    return FlashArray(
        num_devices=num_devices,
        device_capacity=10**6,
        chunk_size=chunk_size,
        model=ZERO_COST,
    )


def patched(original, offset, update):
    buffer = bytearray(original)
    buffer[offset : offset + len(update)] = update
    return bytes(buffer)


class TestUpdateRange:
    def test_update_within_one_stripe(self):
        array = make_array()
        original = payload_of(192)  # one 3+2 stripe
        array.write_object("a", original, ParityScheme(2))
        update = payload_of(10, seed=1)
        array.update_range("a", 30, update)
        assert array.read_object("a")[0] == patched(original, 30, update)

    def test_update_across_stripes(self):
        array = make_array()
        original = payload_of(600, seed=2)  # several stripes
        array.write_object("a", original, ParityScheme(1))
        update = payload_of(300, seed=3)
        array.update_range("a", 150, update)
        assert array.read_object("a")[0] == patched(original, 150, update)

    def test_update_zero_parity_object(self):
        array = make_array()
        original = payload_of(400, seed=4)
        array.write_object("a", original, ParityScheme(0))
        update = b"\x42" * 17
        array.update_range("a", 100, update)
        assert array.read_object("a")[0] == patched(original, 100, update)

    def test_update_replicated_object(self):
        array = make_array()
        original = payload_of(150, seed=5)
        array.write_object("a", original, ReplicationScheme())
        update = payload_of(20, seed=6)
        array.update_range("a", 64, update)
        assert array.read_object("a")[0] == patched(original, 64, update)
        # All replicas updated: the object survives four failures.
        for device_id in range(4):
            array.fail_device(device_id)
        assert array.read_object("a")[0] == patched(original, 64, update)

    def test_replicated_update_stores_one_object_per_stripe(self):
        # As on the write path, a patched stripe is one byte string sent to
        # every replica, not one copy per replica.
        array = make_array()
        original = payload_of(150, seed=5)
        array.write_object("a", original, ReplicationScheme())
        array.update_range("a", 10, payload_of(100, seed=6))
        for stripe in array.get_extent("a").stripes:
            first, *others = (
                array.devices[chunk.device_id]._chunks[chunk.address]
                for chunk in stripe.chunks
            )
            assert len(others) == 4
            assert all(other is first for other in others)

    def test_parity_still_consistent_after_update(self):
        array = make_array()
        original = payload_of(192, seed=7)
        array.write_object("a", original, ParityScheme(2))
        update = payload_of(40, seed=8)
        array.update_range("a", 10, update)
        array.fail_device(0)
        array.fail_device(1)
        # Degraded read decodes via the *updated* parity.
        assert array.read_object("a")[0] == patched(original, 10, update)

    def test_out_of_bounds_rejected(self):
        array = make_array()
        array.write_object("a", payload_of(100, seed=9), ParityScheme(1))
        with pytest.raises(FlashError):
            array.update_range("a", 90, b"x" * 20)
        with pytest.raises(FlashError):
            array.update_range("a", -1, b"x")

    def test_empty_update_is_noop(self):
        array = make_array()
        original = payload_of(100, seed=10)
        array.write_object("a", original, ParityScheme(1))
        result = array.update_range("a", 50, b"")
        assert result.chunks_written == 0
        assert array.read_object("a")[0] == original


class TestUpdateStrategyChoice:
    def test_single_fragment_update_on_wide_stripe_uses_delta(self):
        # 9 devices, 1 parity: k=8. direct = 7 reads, delta = 1 + 1 = 2.
        array = make_array(num_devices=9)
        original = payload_of(8 * 64, seed=11)
        array.write_object("a", original, ParityScheme(1))
        result = array.update_range("a", 0, b"z" * 10)
        # delta: read updated fragment + 1 parity = 2 reads.
        assert result.chunks_read == 2
        assert array.read_object("a")[0] == patched(original, 0, b"z" * 10)

    def test_single_fragment_update_on_narrow_stripe_uses_direct(self):
        # 3 devices, 2 parity: k=1. direct = 0 extra reads, delta = 1 + 2.
        array = make_array(num_devices=3)
        original = payload_of(64, seed=12)
        array.write_object("a", original, ParityScheme(2))
        result = array.update_range("a", 0, b"q" * 8)
        # direct: only the updated fragment itself is read (patching).
        assert result.chunks_read == 1
        assert array.read_object("a")[0] == patched(original, 0, b"q" * 8)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4),  # parity
        st.integers(min_value=1, max_value=500),  # object size
        st.data(),
    )
    def test_update_roundtrip_property(self, parity, size, data):
        array = make_array()
        original = payload_of(size, seed=13)
        array.write_object("a", original, ParityScheme(parity))
        offset = data.draw(st.integers(min_value=0, max_value=size - 1))
        length = data.draw(st.integers(min_value=0, max_value=size - offset))
        update = payload_of(length, seed=14)
        array.update_range("a", offset, update)
        expected = patched(original, offset, update)
        assert array.read_object("a")[0] == expected
        # Redundancy remains consistent: any tolerable failure set decodes.
        for device_id in range(parity):
            array.fail_device(device_id)
        assert array.read_object("a")[0] == expected

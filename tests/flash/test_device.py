"""Tests for the simulated flash device."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ChunkCorruptedError,
    ChunkMissingError,
    DeviceFailedError,
    DeviceFullError,
)
from repro.flash.device import DeviceState, FlashDevice
from repro.flash.ftl import FtlConfig, PageMappedFtl
from repro.flash.latency import ZERO_COST


def make_device(capacity=1024, model=ZERO_COST, device_id=0):
    return FlashDevice(device_id=device_id, capacity_bytes=capacity, model=model)


class TestLifecycle:
    def test_initial_state(self):
        device = make_device()
        assert device.is_online
        assert device.used_bytes == 0
        assert device.free_bytes == 1024
        assert device.chunk_count == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            make_device(capacity=0)

    def test_fail_blocks_io(self):
        device = make_device()
        device.write_chunk((0, 0), b"abc")
        device.fail()
        assert device.state is DeviceState.FAILED
        with pytest.raises(DeviceFailedError):
            device.read_chunk((0, 0))
        with pytest.raises(DeviceFailedError):
            device.write_chunk((0, 1), b"x")

    def test_failed_device_has_no_chunks_visible(self):
        device = make_device()
        device.write_chunk((0, 0), b"abc")
        device.fail()
        assert not device.has_chunk((0, 0))

    def test_replace_gives_fresh_device(self):
        device = make_device()
        device.write_chunk((0, 0), b"abc")
        device.fail()
        device.replace()
        assert device.is_online
        assert device.used_bytes == 0
        assert device.chunk_count == 0
        assert device.generation == 1


class TestIo:
    def test_write_read_roundtrip(self):
        device = make_device()
        device.write_chunk((3, 1), b"hello")
        payload, _elapsed = device.read_chunk((3, 1))
        assert payload == b"hello"

    def test_write_accounts_space(self):
        device = make_device()
        device.write_chunk((0, 0), b"abcde")
        assert device.used_bytes == 5
        assert device.free_bytes == 1019

    def test_overwrite_replaces_and_reaccounts(self):
        device = make_device()
        device.write_chunk((0, 0), b"aaaa")
        device.write_chunk((0, 0), b"bb")
        assert device.used_bytes == 2
        assert device.read_chunk((0, 0))[0] == b"bb"

    def test_write_beyond_capacity_raises(self):
        device = make_device(capacity=4)
        with pytest.raises(DeviceFullError):
            device.write_chunk((0, 0), b"abcde")
        assert device.used_bytes == 0

    def test_overwrite_fitting_via_replacement(self):
        device = make_device(capacity=4)
        device.write_chunk((0, 0), b"aaaa")
        # Replacing a 4-byte chunk with another 4-byte chunk fits.
        device.write_chunk((0, 0), b"bbbb")
        assert device.used_bytes == 4

    def test_read_missing_chunk_raises(self):
        device = make_device()
        with pytest.raises(ChunkMissingError):
            device.read_chunk((9, 9))

    def test_delete_chunk(self):
        device = make_device()
        device.write_chunk((1, 0), b"xyz")
        device.discard_chunks([(1, 0)])
        assert device.used_bytes == 0
        assert not device.has_chunk((1, 0))

    def test_service_time_uses_model(self):
        from repro.flash.latency import ServiceTimeModel

        model = ServiceTimeModel(0.5, 0.25, 10.0, 10.0)
        device = make_device(model=model)
        elapsed = device.write_chunk((0, 0), b"abcde")
        assert elapsed == pytest.approx(0.25 + 5 / 10.0)
        _payload, elapsed = device.read_chunk((0, 0))
        assert elapsed == pytest.approx(0.5 + 5 / 10.0)


class TestDiscard:
    """``discard_chunks``, the one way to retire chunks, tolerates absence."""

    @staticmethod
    def worn_device():
        """A device with an FTL, two chunks and a tripped integrity check on one."""
        device = make_device(capacity=4096)
        device.ftl = PageMappedFtl(FtlConfig(page_size=64, pages_per_block=4, num_blocks=16))
        device.write_chunk((0, 0), b"a" * 200)
        device.write_chunk((0, 1), b"b" * 100)
        device.corrupt_chunk((0, 0))
        with pytest.raises(ChunkCorruptedError):
            device.read_chunk((0, 0))
        return device

    @staticmethod
    def state_of(device):
        return (
            dataclasses.astuple(device.stats),
            device.used_bytes,
            device.chunk_count,
            set(device.corrupt_chunks),
            (0, 0) in device._programmed,
            device.ftl.mapped_pages,
            dataclasses.astuple(device.ftl.stats),
        )

    def test_present_chunk_has_delete_chunks_effects(self):
        discarded = self.worn_device()
        discarded.discard_chunks([(0, 0)])
        assert discarded.stats.deletes == discarded.stats.erases == 1
        assert discarded.used_bytes == 100
        assert discarded.corrupt_chunks == set()
        assert (0, 0) not in discarded._programmed
        assert discarded.ftl.mapped_pages == 2  # the 100-byte chunk's pages
        assert not discarded.has_chunk((0, 0))

    def test_absent_chunk_is_a_noop(self):
        device = self.worn_device()
        before = self.state_of(device)
        device.discard_chunks([(9, 9)])
        assert self.state_of(device) == before

    def test_failed_device_is_a_noop(self):
        device = self.worn_device()
        before = self.state_of(device)
        device.fail()
        device.discard_chunks([(0, 0)])
        assert self.state_of(device) == before

    def test_suspect_device_still_discards(self):
        device = self.worn_device()
        device.suspect()
        device.discard_chunks([(0, 1)])
        assert device.used_bytes == 200
        assert device.stats.deletes == 1


class TestStats:
    def test_counters(self):
        device = make_device()
        device.write_chunk((0, 0), b"abc")
        device.read_chunk((0, 0))
        device.read_chunk((0, 0))
        device.discard_chunks([(0, 0)])
        assert device.stats.writes == 1
        assert device.stats.reads == 2
        assert device.stats.deletes == 1
        assert device.stats.bytes_written == 3
        assert device.stats.bytes_read == 6

    def test_wear_counters_survive_reset(self):
        device = make_device()
        device.write_chunk((0, 0), b"abc")
        device.write_chunk((0, 0), b"def")  # overwrite = program + erase
        device.stats.reset()
        assert device.stats.writes == 0
        assert device.stats.programs == 2
        assert device.stats.erases == 1

    def test_wear_accessor_matches_counters(self):
        device = make_device()
        device.write_chunk((0, 0), b"abc")
        device.write_chunk((0, 0), b"def")  # overwrite = program + erase
        device.discard_chunks([(0, 0)])
        assert device.stats.wear() == (device.stats.programs, device.stats.erases)
        assert device.stats.wear() == (2, 2)
        device.stats.reset()
        assert device.stats.wear() == (2, 2)  # wear is physical, not bookkeeping


class TestSuspectState:
    def test_suspect_still_serves_io(self):
        device = make_device()
        device.write_chunk((0, 0), b"abc")
        device.suspect()
        assert device.state is DeviceState.SUSPECT
        assert not device.is_online
        assert device.is_available
        assert device.read_chunk((0, 0))[0] == b"abc"
        assert device.has_chunk((0, 0))

    def test_suspect_only_demotes_online(self):
        device = make_device()
        device.fail()
        device.suspect()
        assert device.state is DeviceState.FAILED


class TestCorruptionTracking:
    def test_crc_mismatch_records_address(self):
        from repro.errors import ChunkCorruptedError

        device = make_device()
        device.write_chunk((0, 0), b"abcd")
        device.corrupt_chunk((0, 0))
        assert not device.verify_chunk((0, 0))
        with pytest.raises(ChunkCorruptedError):
            device.read_chunk((0, 0))
        assert (0, 0) in device.corrupt_chunks

    def test_rewrite_clears_corrupt_mark(self):
        from repro.errors import ChunkCorruptedError

        device = make_device()
        device.write_chunk((0, 0), b"abcd")
        device.corrupt_chunk((0, 0))
        with pytest.raises(ChunkCorruptedError):
            device.read_chunk((0, 0))
        device.write_chunk((0, 0), b"fresh")
        assert (0, 0) not in device.corrupt_chunks
        assert device.read_chunk((0, 0))[0] == b"fresh"

    def test_delete_clears_corrupt_mark(self):
        from repro.errors import ChunkCorruptedError

        device = make_device()
        device.write_chunk((0, 0), b"abcd")
        device.corrupt_chunk((0, 0))
        with pytest.raises(ChunkCorruptedError):
            device.read_chunk((0, 0))
        device.discard_chunks([(0, 0)])
        assert (0, 0) not in device.corrupt_chunks

    def test_replace_clears_corrupt_marks(self):
        from repro.errors import ChunkCorruptedError

        device = make_device()
        device.write_chunk((0, 0), b"abcd")
        device.corrupt_chunk((0, 0))
        with pytest.raises(ChunkCorruptedError):
            device.read_chunk((0, 0))
        device.fail()
        device.replace()
        assert device.corrupt_chunks == set()

    def test_corrupt_stored_cannot_rot_empty_or_zero_flip(self):
        device = make_device()
        device.write_chunk((0, 0), b"")
        device.write_chunk((0, 1), b"abcd")
        assert not device.corrupt_stored((0, 0), offset=0, flip=0xFF)
        assert not device.corrupt_stored((0, 1), offset=0, flip=0)
        assert device.verify_chunk((0, 1))

    def test_tear_stored_truncates_and_reaccounts(self):
        from repro.errors import ChunkCorruptedError

        device = make_device()
        device.write_chunk((0, 0), b"abcdefgh")
        used_before = device.used_bytes
        assert device.tear_stored((0, 0), keep_fraction=0.5)
        assert device.used_bytes == used_before - 4
        with pytest.raises(ChunkCorruptedError):
            device.read_chunk((0, 0))

    def test_tear_stored_always_detectable(self):
        # A keep fraction of ~1.0 must still damage the chunk.
        device = make_device()
        device.write_chunk((0, 0), b"abcd")
        assert device.tear_stored((0, 0), keep_fraction=1.0)
        assert not device.verify_chunk((0, 0))


ADDRESSES = ((0, 0), (0, 1), (1, 0))
addresses = st.sampled_from(ADDRESSES)
steps = st.one_of(
    st.tuples(st.just("write"), addresses, st.binary(max_size=24)),
    st.tuples(st.just("rewrite"), addresses),
    st.tuples(st.just("rot"), addresses, st.integers(0, 64), st.integers(0, 255)),
    st.tuples(st.just("tear"), addresses, st.floats(0.0, 1.0)),
    st.tuples(st.just("corrupt"), addresses),
    st.tuples(st.just("swap"), addresses),
    st.tuples(st.just("discard"), addresses),
    st.tuples(st.just("replace")),
)


class TestProvenanceIntegrity:
    """A read fails exactly when the stored bytes differ from the programmed ones."""

    @given(st.lists(steps, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_reads_trip_exactly_on_changed_bytes(self, script):
        device = make_device(capacity=4096)
        programmed = {}  # the model: last bytes each address was programmed with
        corrupt = set()
        for op, *args in script:
            address = args[0] if args else None
            if op == "write":
                device.write_chunk(address, args[1])
                programmed[address] = args[1]
                corrupt.discard(address)
            elif op == "replace":
                device.replace()
                programmed.clear()
                corrupt.clear()
            elif op == "discard":
                device.discard_chunks([address])
                programmed.pop(address, None)
                corrupt.discard(address)
            elif address not in programmed:
                continue  # nothing stored to damage or rewrite
            elif op == "rewrite":  # a repair: program the intended bytes again
                device.write_chunk(address, bytearray(programmed[address]))
                corrupt.discard(address)
            elif op == "rot":
                before = device._chunks[address]
                changed = device.corrupt_stored(address, offset=args[1], flip=args[2])
                assert changed == (device._chunks[address] != before)
            elif op == "tear":
                device.tear_stored(address, keep_fraction=args[1])
            elif op == "corrupt":
                device.corrupt_chunk(address)
            else:  # swap in an equal copy: the bytes decide, not the object
                device._chunks[address] = bytes(bytearray(device._chunks[address]))

            for checked in ADDRESSES:
                if checked not in programmed:
                    assert not device.has_chunk(checked)
                    continue
                damaged = device._chunks[checked] != programmed[checked]
                assert device.verify_chunk(checked) is not damaged
                if damaged:
                    with pytest.raises(ChunkCorruptedError):
                        device.read_chunk(checked)
                    corrupt.add(checked)
                else:
                    assert device.read_chunk(checked)[0] == programmed[checked]
            assert device.corrupt_chunks == corrupt
            assert device.used_bytes == sum(len(device._chunks[a]) for a in programmed)

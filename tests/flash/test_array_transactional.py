"""Transactional-overwrite semantics of the array write path.

A mid-write failure (device full) must leave the previous copy intact —
this is what keeps restripe-based recovery from destroying the objects it
is trying to save.
"""

import numpy as np
import pytest

from repro.errors import DeviceFullError, ObjectNotFoundError
from repro.flash.array import FlashArray, ObjectHealth
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme, ReplicationScheme


def payload_of(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def make_array(capacity=4_000, num_devices=5):
    return FlashArray(
        num_devices=num_devices,
        device_capacity=capacity,
        chunk_size=64,
        model=ZERO_COST,
    )


class TestTransactionalOverwrite:
    def test_failed_overwrite_preserves_old_copy(self):
        array = make_array(capacity=1_000)
        data = payload_of(2_000)
        array.write_object("a", data, ParityScheme(0))
        # Replication of the same payload needs 5x the space: cannot fit.
        with pytest.raises(DeviceFullError):
            array.write_object("a", data, ReplicationScheme(), overwrite=True)
        assert array.read_object("a")[0] == data
        assert array.get_extent("a").scheme == ParityScheme(0)

    def test_failed_overwrite_rolls_back_space(self):
        array = make_array(capacity=1_000)
        data = payload_of(2_000, seed=1)
        array.write_object("a", data, ParityScheme(0))
        used_before = array.used_bytes
        with pytest.raises(DeviceFullError):
            array.write_object("a", data, ReplicationScheme(), overwrite=True)
        assert array.used_bytes == used_before
        assert array.logical_bytes == len(data)

    def test_failed_fresh_write_leaves_nothing(self):
        array = make_array(capacity=500)
        with pytest.raises(DeviceFullError):
            array.write_object("big", payload_of(10_000), ParityScheme(0))
        assert "big" not in array
        assert array.used_bytes == 0
        with pytest.raises(ObjectNotFoundError):
            array.read_object("big")

    def test_successful_overwrite_releases_old_space(self):
        array = make_array(capacity=10_000)
        array.write_object("a", payload_of(4_000, seed=2), ParityScheme(0))
        array.write_object("a", payload_of(1_000, seed=3), ParityScheme(0), overwrite=True)
        # Old chunks are gone: usage reflects only the new copy (+ padding).
        assert array.used_bytes <= 1_100
        assert array.read_object("a")[0] == payload_of(1_000, seed=3)

    def test_overwrite_while_old_copy_degraded(self):
        # Restripe scenario: old chunks partially on a failed device.
        array = make_array(capacity=10_000)
        data = payload_of(2_000, seed=4)
        array.write_object("a", data, ParityScheme(1))
        array.fail_device(0)
        payload, _ = array.read_object("a")  # degraded read
        array.write_object("a", payload, ParityScheme(1), overwrite=True)
        assert array.object_health("a") is ObjectHealth.HEALTHY
        assert array.read_object("a")[0] == data


class TestUnevenCapacityRollback:
    """A chunk write that fails mid-stripe must take its stripe-mates with it.

    Five devices of 1000 B, 100 B chunks, device 3 shrunk to 150 B: a
    1200 B ``ParityScheme(1)`` object is three full stripes of one chunk per
    device, and the second stripe's chunk does not fit on device 3 — after
    devices 0-2 have already programmed theirs.
    """

    @staticmethod
    def uneven_array():
        array = FlashArray(
            num_devices=5, device_capacity=1_000, chunk_size=100, model=ZERO_COST
        )
        array.devices[3].capacity_bytes = 150
        return array

    @staticmethod
    def occupancy(array):
        return [(device.used_bytes, device.chunk_count) for device in array.devices]

    def test_failed_fresh_write_leaves_no_orphans(self):
        array = self.uneven_array()
        with pytest.raises(DeviceFullError):
            array.write_object("x", payload_of(1_200), ParityScheme(1))
        assert "x" not in array
        assert self.occupancy(array) == [(0, 0)] * 5
        assert (array.logical_bytes, array.data_bytes, array.redundancy_bytes) == (0, 0, 0)

    def test_failed_overwrite_leaves_no_orphans(self):
        array = self.uneven_array()
        data = payload_of(400, seed=9)
        array.write_object("x", data, ParityScheme(1))  # one stripe: fits
        before = self.occupancy(array)
        counters = (array.logical_bytes, array.data_bytes, array.redundancy_bytes)
        assert before == [(100, 1)] * 5
        with pytest.raises(DeviceFullError):
            array.write_object("x", payload_of(1_200, seed=10), ParityScheme(1), overwrite=True)
        assert self.occupancy(array) == before
        assert (array.logical_bytes, array.data_bytes, array.redundancy_bytes) == counters
        assert array.read_object("x")[0] == data
        assert array.object_health("x") is ObjectHealth.HEALTHY


class TestRestripe:
    def test_restripe_moves_object_off_failed_device(self):
        array = make_array(capacity=10_000)
        data = payload_of(2_000, seed=5)
        array.write_object("a", data, ParityScheme(1))
        array.fail_device(2)
        result = array.restripe_object("a")
        assert result.degraded
        assert array.object_health("a") is ObjectHealth.HEALTHY
        used_devices = {
            chunk.device_id
            for stripe in array.get_extent("a").stripes
            for chunk in stripe.chunks
        }
        assert 2 not in used_devices

    def test_restripe_with_new_scheme(self):
        array = make_array(capacity=10_000)
        data = payload_of(1_000, seed=6)
        array.write_object("a", data, ParityScheme(2))
        array.fail_device(0)
        array.fail_device(1)
        # Width 3 can still host 2-parity, but down-shift to 1-parity to
        # save space on the shrunken array.
        array.restripe_object("a", ParityScheme(1))
        assert array.read_object("a")[0] == data
        assert array.object_health("a") is ObjectHealth.HEALTHY

    def test_restripe_survives_next_failure(self):
        array = make_array(capacity=20_000)
        data = payload_of(1_000, seed=7)
        array.write_object("a", data, ParityScheme(2))
        array.fail_device(0)
        array.restripe_object("a")
        array.fail_device(1)
        array.fail_device(2)
        # Fresh 2-parity on the survivors tolerates two more losses.
        assert array.read_object("a")[0] == data

    def test_restripe_unrecoverable_raises(self):
        from repro.errors import UnrecoverableDataError

        array = make_array()
        array.write_object("a", payload_of(1_000, seed=8), ParityScheme(0))
        array.fail_device(0)
        with pytest.raises(UnrecoverableDataError):
            array.restripe_object("a")

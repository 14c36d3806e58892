"""The billing fast path must be invisible: identical results, less work.

The flash array caches two things that used to be recomputed per
operation — the id→device map and validated stripe geometry. These tests
pin that the caches never change what an operation *returns*:
:class:`ArrayIoResult` stays byte-identical to the uncached arithmetic, and
the cached device map tracks in-place fail/replace mutations.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StripeLayoutError
from repro.flash.array import FlashArray, _scheme_geometry
from repro.flash.latency import INTEL_540S_SSD, ServiceTimeModel
from repro.flash.stripe import ParityScheme, ReplicationScheme


def make_array(num_devices=5, capacity=10**6, chunk_size=64, model=INTEL_540S_SSD):
    return FlashArray(
        num_devices=num_devices,
        device_capacity=capacity,
        chunk_size=chunk_size,
        model=model,
    )


def payload_of(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def result_snapshot(result):
    """Flatten an ArrayIoResult into plain comparable data."""
    return (
        result.elapsed,
        result.chunks_read,
        result.chunks_written,
        result.bytes_read,
        result.bytes_written,
        result.degraded,
        result.op,
        {
            device_id: dataclasses.asdict(sample)
            for device_id, sample in sorted(result.device_io.items())
        },
    )


class TestServiceTime:
    @given(num_bytes=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_matches_formula_exactly(self, num_bytes):
        model = ServiceTimeModel(
            read_overhead=80e-6,
            write_overhead=100e-6,
            read_bandwidth=560e6,
            write_bandwidth=480e6,
        )
        expected_read = model.read_overhead + num_bytes / model.read_bandwidth
        expected_write = model.write_overhead + num_bytes / model.write_bandwidth
        assert model.read_time(num_bytes) == expected_read
        assert model.write_time(num_bytes) == expected_write


class TestSchemeGeometryCache:
    def test_matches_direct_calls(self):
        for scheme in (ParityScheme(2), ParityScheme(0), ReplicationScheme()):
            for width in (4, 5, 8):
                data, is_repl = _scheme_geometry(scheme, width)
                assert data == scheme.data_chunks_per_stripe(width)
                assert is_repl == isinstance(scheme, ReplicationScheme)

    def test_invalid_width_raises_every_time(self):
        # lru_cache does not cache exceptions; validation must keep firing.
        for _ in range(2):
            with pytest.raises(StripeLayoutError):
                _scheme_geometry(ParityScheme(4), 3)


class TestDeviceMapCache:
    def test_tracks_fail_and_replace(self):
        array = make_array()
        data = payload_of(1000)
        array.write_object("a", data, ParityScheme(2))
        array.fail_device(2)
        read, result = array.read_object("a")
        assert read == data
        assert result.degraded
        array.replace_device(2)
        array.rebuild_object("a")
        read, result = array.read_object("a")
        assert read == data
        assert not result.degraded
        # The cached map must keep pointing at the live device objects.
        for device in array.devices:
            assert array._devices_by_id[device.device_id] is device

    def test_billing_lands_on_replaced_device(self):
        array = make_array()
        array.write_object("a", payload_of(512), ParityScheme(1))
        array.fail_device(0)
        array.replace_device(0)
        array.rebuild_object("a")
        _, result = array.read_object("a")
        assert 0 in result.device_io
        assert result.device_io[0].reads > 0


class TestBillingIdentity:
    """The same operation sequence bills identically on cold and warm caches."""

    SCHEMES = [ParityScheme(2), ParityScheme(1), ReplicationScheme()]

    def run_sequence(self, array):
        snapshots = []
        for index, scheme in enumerate(self.SCHEMES):
            key = f"obj-{index}"
            data = payload_of(700 + 113 * index, seed=index)
            snapshots.append(result_snapshot(array.write_object(key, data, scheme)))
            read, result = array.read_object(key)
            assert read == data
            snapshots.append(result_snapshot(result))
            patch = payload_of(64, seed=100 + index)
            snapshots.append(
                result_snapshot(array.update_range(key, 32, patch))
            )
        array.fail_device(1)
        for index in range(len(self.SCHEMES)):
            _, result = array.read_object(f"obj-{index}")
            snapshots.append(result_snapshot(result))
        snapshots.append(result_snapshot(array.delete_object("obj-0")))
        return snapshots

    def test_cold_equals_warm(self):
        # Warm array: caches pre-populated by a full dry run first.
        warm_model = ServiceTimeModel(
            read_overhead=80e-6,
            write_overhead=100e-6,
            read_bandwidth=560e6,
            write_bandwidth=480e6,
        )
        warm = make_array(model=warm_model)
        self.run_sequence(warm)

        cold_model = ServiceTimeModel(
            read_overhead=80e-6,
            write_overhead=100e-6,
            read_bandwidth=560e6,
            write_bandwidth=480e6,
        )
        cold = make_array(model=cold_model)
        cold_run = self.run_sequence(cold)

        # Re-run on a fresh array sharing the warm model: every cache hit.
        rerun = self.run_sequence(make_array(model=warm_model))
        assert rerun == cold_run

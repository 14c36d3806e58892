"""Tests for the fault injector: device hooks and determinism."""

import numpy as np
import pytest

from repro.errors import ChunkCorruptedError, TransientIoError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FailSlow,
    FailStop,
    FaultPlan,
    LatentErrors,
    TornWrite,
    TransientReadError,
)
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST, ServiceTimeModel
from repro.flash.stripe import ParityScheme


def payload_of(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def make_array(model=ZERO_COST):
    return FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=model)


class TestDeviceHooks:
    def test_transient_read_error_raises_without_corrupting(self):
        array = make_array()
        plan = FaultPlan(events=(TransientReadError(rate=1.0),), seed=1)
        injector = FaultInjector(plan).attach(array)
        device = array.devices[0]
        device.write_chunk((0, 0), b"abcd")
        with pytest.raises(TransientIoError):
            device.read_chunk((0, 0))
        assert injector.injected_transients == 1
        # The chunk itself is intact: detach and read it back.
        injector.detach()
        assert device.read_chunk((0, 0))[0] == b"abcd"

    def test_latent_error_trips_crc_and_records_address(self):
        array = make_array()
        plan = FaultPlan(events=(LatentErrors(uber_rate=1.0),), seed=2)
        injector = FaultInjector(plan).attach(array)
        device = array.devices[1]
        device.write_chunk((0, 0), payload_of(64, seed=2))
        with pytest.raises(ChunkCorruptedError):
            device.read_chunk((0, 0))
        assert injector.injected_corruptions == 1
        assert (0, 0) in device.corrupt_chunks

    def test_latent_error_budget_caps_injections(self):
        array = make_array()
        plan = FaultPlan(events=(LatentErrors(uber_rate=1.0, max_events=1),), seed=3)
        injector = FaultInjector(plan).attach(array)
        device = array.devices[0]
        device.write_chunk((0, 0), payload_of(64, seed=3))
        device.write_chunk((0, 1), payload_of(64, seed=4))
        with pytest.raises(ChunkCorruptedError):
            device.read_chunk((0, 0))
        # Budget exhausted: the second read is clean.
        assert device.read_chunk((0, 1))[0] == payload_of(64, seed=4)
        assert injector.injected_corruptions == 1

    def test_torn_write_persists_truncated_payload(self):
        array = make_array()
        plan = FaultPlan(events=(TornWrite(rate=1.0),), seed=4)
        injector = FaultInjector(plan).attach(array)
        device = array.devices[0]
        device.write_chunk((0, 0), payload_of(64, seed=5))
        assert injector.injected_torn_writes == 1
        # The checksum covers the intended payload, so the read trips CRC.
        with pytest.raises(ChunkCorruptedError):
            device.read_chunk((0, 0))

    def test_fail_stop_fires_when_clock_reaches_time(self):
        array = make_array()
        plan = FaultPlan(events=(FailStop(at_time=10.0, device=2),), seed=5)
        injector = FaultInjector(plan).attach(array)
        assert injector.poll(5.0) == []
        assert injector.pending_fail_stops
        fired = injector.poll(10.0)
        assert len(fired) == 1
        assert not array.devices[2].is_available
        # Firing is once-only.
        assert injector.poll(11.0) == []
        assert not injector.pending_fail_stops

    def test_fail_slow_scales_latency_until_replacement(self):
        model = ServiceTimeModel(0.001, 0.001, 1e9, 1e9)
        array = make_array(model=model)
        plan = FaultPlan(events=(FailSlow(device=0, latency_multiplier=10.0),), seed=6)
        FaultInjector(plan).attach(array)
        slow, healthy = array.devices[0], array.devices[1]
        slow.write_chunk((0, 0), b"x")
        healthy.write_chunk((0, 0), b"x")
        slow_elapsed = slow.read_chunk((0, 0))[1]
        healthy_elapsed = healthy.read_chunk((0, 0))[1]
        assert slow_elapsed == pytest.approx(10.0 * healthy_elapsed)
        # A swapped-in spare is a different physical device: no longer slow.
        slow.fail()
        slow.replace()
        slow.write_chunk((0, 0), b"x")
        assert slow.read_chunk((0, 0))[1] == pytest.approx(healthy_elapsed)


class TestDeterminism:
    @staticmethod
    def _run_campaign(seed):
        array = make_array()
        plan = FaultPlan(
            events=(LatentErrors(uber_rate=0.3), TransientReadError(rate=0.1)),
            seed=seed,
        )
        injector = FaultInjector(plan).attach(array)
        outcomes = []
        for key in range(8):
            array.write_object(f"obj-{key}", payload_of(600, seed=key), ParityScheme(2))
        for key in range(8):
            try:
                data, _ = array.read_object(f"obj-{key}")
                outcomes.append(("ok", data[:8]))
            except Exception as exc:  # noqa: BLE001 - record the shape only
                outcomes.append((type(exc).__name__, None))
        corrupt = [sorted(d.corrupt_chunks) for d in array.devices]
        return outcomes, corrupt, injector.injected_corruptions, injector.injected_transients

    def test_same_seed_same_injections(self):
        assert self._run_campaign(42) == self._run_campaign(42)

    def test_different_seed_diverges(self):
        # Not a hard guarantee for every pair, but at 30% uber over 8 objects
        # two independent streams matching exactly would be astronomical.
        assert self._run_campaign(42) != self._run_campaign(43)

    def test_extend_preserves_existing_streams(self):
        array_a, array_b = make_array(), make_array()
        base = FaultPlan(events=(LatentErrors(uber_rate=0.3),), seed=9)
        inj_a = FaultInjector(base).attach(array_a)
        inj_b = FaultInjector(base).attach(array_b)

        def touch(array):
            device = array.devices[0]
            results = []
            for index in range(20):
                device.write_chunk((0, index), payload_of(64, seed=index))
                try:
                    device.read_chunk((0, index))
                    results.append("ok")
                except ChunkCorruptedError:
                    results.append("corrupt")
            return results

        first_a = touch(array_a)
        # Extending one injector mid-run must not perturb the latent stream.
        inj_b.extend(FailStop(at_time=1e9, device=4))
        first_b = touch(array_b)
        assert first_a == first_b
        assert inj_a.injected_corruptions == inj_b.injected_corruptions


"""Tests for scrubbing arrays that also have failed devices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FailStop, FaultPlan, LatentErrors
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme, ReplicationScheme


def payload_of(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def make_array():
    return FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=ZERO_COST)


class TestScrubWithFailures:
    def test_scrub_ignores_failed_device_chunks(self):
        array = make_array()
        array.write_object("a", payload_of(1_000, seed=1), ParityScheme(2))
        array.fail_device(0)
        report = array.scrub()
        # Chunks on the failed device are not checked (they are missing, not
        # silently corrupt) and the object is not reported unrecoverable.
        assert not report.unrecoverable_objects
        assert report.chunks_repaired == 0

    @pytest.mark.parametrize("device", range(5))
    def test_scrub_survives_a_stop_it_triggers(self, device):
        # The first chunk read fires the stop: a chunk on the newly failed
        # device is missing, not damaged, so there is nothing to rewrite.
        array = make_array()
        data = payload_of(1_000, seed=4)
        array.write_object("a", data, ParityScheme(2))
        FaultInjector(
            FaultPlan(seed=1, events=(FailStop(at_time=0.0, device=device),))
        ).attach(array)
        report = array.scrub()
        assert not array.devices[device].is_available
        assert report.chunks_repaired == 0
        assert not report.unrecoverable_objects
        assert array.read_object("a")[0] == data

    def test_scrub_repairs_corruption_despite_failure(self):
        array = make_array()
        data = payload_of(192, seed=2)  # one 3+2 stripe
        array.write_object("a", data, ParityScheme(2))
        stripe = array.get_extent("a").stripes[0]
        array.fail_device(stripe.chunks[0].device_id)
        survivor = next(
            c for c in stripe.chunks if c.device_id != stripe.chunks[0].device_id
        )
        array.devices[survivor.device_id].corrupt_chunk(survivor.address)
        report = array.scrub()
        assert report.chunks_repaired == 1
        # One fragment missing + repaired corruption: still fully readable.
        assert array.read_object("a")[0] == data

    def test_scrub_detects_beyond_tolerance_combination(self):
        array = make_array()
        data = payload_of(192, seed=3)
        array.write_object("a", data, ParityScheme(1))  # tolerates one loss
        stripe = array.get_extent("a").stripes[0]
        array.fail_device(stripe.chunks[0].device_id)
        survivor = next(
            c for c in stripe.chunks if c.device_id != stripe.chunks[0].device_id
        )
        array.devices[survivor.device_id].corrupt_chunk(survivor.address)
        report = array.scrub()
        # Missing + corrupt on a 1-parity stripe: nothing left to decode from.
        assert report.unrecoverable_objects == ["a"]

    def test_scrub_replicated_with_failures(self):
        array = make_array()
        data = payload_of(64, seed=4)
        array.write_object("a", data, ReplicationScheme())
        stripe = array.get_extent("a").stripes[0]
        for chunk in stripe.chunks[:3]:
            array.fail_device(chunk.device_id)
        survivor = stripe.chunks[3]
        array.devices[survivor.device_id].corrupt_chunk(survivor.address)
        report = array.scrub()
        assert report.chunks_repaired == 1
        assert array.read_object("a")[0] == data


# (scheme, per-stripe loss tolerance on a 5-device array)
TOLERANT_SCHEMES = [
    (ReplicationScheme(), 4),  # 5 copies, any 4 losses survivable
    (ParityScheme(2), 2),
    (ParityScheme(1), 1),
]


@st.composite
def scrub_case(draw):
    """An object, a redundancy scheme, and a within-tolerance damage pattern."""
    scheme_index = draw(st.integers(min_value=0, max_value=len(TOLERANT_SCHEMES) - 1))
    scheme, tolerance = TOLERANT_SCHEMES[scheme_index]
    size = draw(st.integers(min_value=1, max_value=1500))
    data_seed = draw(st.integers(min_value=0, max_value=2**31))
    # Per-stripe: how many fragments to corrupt (kept within tolerance) and
    # which positions, drawn once and reused for every stripe.
    damage = draw(st.lists(
        st.integers(min_value=0, max_value=tolerance), min_size=1, max_size=8
    ))
    position_seed = draw(st.integers(min_value=0, max_value=2**31))
    return scheme, tolerance, size, data_seed, damage, position_seed


class TestScrubRestoresExactBytes:
    """Property: any within-tolerance corruption pattern scrubs back to
    byte-identical data, across every redundancy scheme."""

    @settings(max_examples=40, deadline=None)
    @given(case=scrub_case())
    def test_within_tolerance_corruption_is_fully_repaired(self, case):
        scheme, _tolerance, size, data_seed, damage, position_seed = case
        array = make_array()
        data = payload_of(size, seed=data_seed)
        array.write_object("obj", data, scheme)
        rng = np.random.default_rng(position_seed)
        corrupted = 0
        for index, stripe in enumerate(array.get_extent("obj").stripes):
            count = min(damage[index % len(damage)], len(stripe.chunks))
            victims = rng.choice(len(stripe.chunks), size=count, replace=False)
            for victim in victims:
                chunk = stripe.chunks[int(victim)]
                array.devices[chunk.device_id].corrupt_chunk(chunk.address)
                corrupted += 1
        report = array.scrub()
        assert report.chunks_repaired == corrupted
        assert not report.unrecoverable_objects
        assert array.read_object("obj")[0] == data
        # The repair is complete: a second pass finds nothing left to fix.
        second = array.scrub()
        assert second.chunks_repaired == 0

    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(min_value=64, max_value=1200),
        data_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_beyond_tolerance_is_reported_not_mangled(self, size, data_seed):
        array = make_array()
        data = payload_of(size, seed=data_seed)
        array.write_object("obj", data, ParityScheme(1))
        stripe = array.get_extent("obj").stripes[0]
        for chunk in stripe.chunks[:2]:  # tolerance is 1
            array.devices[chunk.device_id].corrupt_chunk(chunk.address)
        report = array.scrub()
        assert report.unrecoverable_objects == ["obj"]

    @settings(max_examples=25, deadline=None)
    @given(
        fault_seed=st.integers(min_value=0, max_value=2**31),
        data_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_seeded_latent_errors_then_scrub_roundtrip(self, fault_seed, data_seed):
        """Injector-driven bit-rot (budget <= tolerance) always scrubs clean."""
        array = make_array()
        data = payload_of(800, seed=data_seed)
        array.write_object("obj", data, ParityScheme(2))
        plan = FaultPlan(
            events=(LatentErrors(uber_rate=0.5, seed=fault_seed, max_events=2),),
            seed=fault_seed,
        )
        injector = FaultInjector(plan).attach(array)
        # Foreground reads both trigger the rot and survive it (degraded
        # decode around the bad fragments).
        assert array.read_object("obj")[0] == data
        injector.detach()  # freeze the damage before repairing it
        report = array.scrub()
        assert report.chunks_repaired == injector.injected_corruptions
        assert not report.unrecoverable_objects
        assert array.read_object("obj")[0] == data
        assert all(not device.corrupt_chunks for device in array.devices)

"""Tests for the ReoCache facade: construction knobs and conveniences."""

import pytest

from repro.core.policy import reo_policy, uniform_parity
from repro.core.reo import ReoCache
from repro.errors import ObjectNotFoundError
from repro.flash.latency import ZERO_COST
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId
from repro.sim.clock import SimClock

from tests.conftest import build_cache, register_uniform_objects


class TestBuild:
    def test_default_policy_is_reo_10(self):
        cache = ReoCache.build(cache_bytes=10**6, device_model=ZERO_COST)
        assert cache.policy.name == "Reo-10%"

    def test_device_capacity_split(self):
        cache = ReoCache.build(cache_bytes=10**6, num_devices=5, device_model=ZERO_COST)
        assert len(cache.array.devices) == 5
        assert cache.array.devices[0].capacity_bytes == 200_000

    def test_shared_clock(self):
        cache = ReoCache.build(cache_bytes=10**6, device_model=ZERO_COST)
        assert isinstance(cache.clock, SimClock)
        assert cache.backend.clock is cache.clock
        assert cache.array.clock is cache.clock

    def test_uniform_policy_has_no_budget(self):
        cache = ReoCache.build(
            policy=uniform_parity(1), cache_bytes=10**6, device_model=ZERO_COST
        )
        assert cache.manager.budget is None

    def test_reo_policy_has_budget(self):
        cache = ReoCache.build(
            policy=reo_policy(0.2), cache_bytes=10**6, device_model=ZERO_COST
        )
        assert cache.manager.budget is not None
        assert cache.manager.budget.enabled

    def test_volume_formatted(self):
        from repro.osd.types import SUPER_BLOCK

        cache = build_cache()
        assert cache.target.exists(SUPER_BLOCK)

    def test_repr(self):
        assert "Reo-20%" in repr(build_cache())


class TestConveniences:
    def test_read_unregistered_object_raises(self):
        cache = build_cache()
        with pytest.raises(ObjectNotFoundError):
            cache.read("never-registered")

    def test_register_objects(self):
        cache = build_cache()
        cache.register_objects({"a": 100, "b": 200})
        assert cache.backend.size_of("a") == 100
        assert cache.read("b").num_bytes == 200

    def test_hit_ratio_property(self):
        cache = build_cache()
        register_uniform_objects(cache, 3, 1_000)
        cache.read("obj-0")
        cache.read("obj-0")
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_flush_returns_count(self):
        cache = build_cache()
        register_uniform_objects(cache, 5, 1_000)
        cache.write("obj-0")
        cache.write("obj-1")
        assert cache.flush() == 2

    def test_scrub_facade_purges_unrecoverable(self):
        cache = build_cache(policy=uniform_parity(0))
        names = register_uniform_objects(cache, 3, 1_000)
        for name in names:
            cache.read(name)
        cached = cache.manager.get_cached(names[0])
        extent = cache.array.get_extent(cached.object_id)
        chunk = extent.stripes[0].data_chunks()[0]
        cache.array.devices[chunk.device_id].corrupt_chunk(chunk.address)
        report = cache.scrub()
        assert cached.object_id in report.unrecoverable_objects
        assert names[0] not in cache.manager

    def test_space_efficiency_property(self):
        cache = build_cache(policy=uniform_parity(1))
        register_uniform_objects(cache, 5, 2_000)
        cache.read("obj-0")
        assert 0.7 < cache.space_efficiency <= 0.85


class TestScrubPurge:
    """Both scrub entry points purge through ``CacheManager.drop_lost``."""

    @staticmethod
    def uncached_unrecoverable(cache):
        # Written straight through the initiator, so the cache has no name
        # for it; class 3 is 0-parity, so one bad chunk makes it unrecoverable.
        object_id = ObjectId(PARTITION_BASE, FIRST_USER_OID + 1000)
        assert cache.initiator.write(object_id, bytes(range(256)) * 8, class_id=3).ok
        chunk = cache.array.get_extent(object_id).stripes[0].chunks[0]
        cache.array.devices[chunk.device_id].corrupt_chunk(chunk.address)
        return object_id

    @pytest.mark.parametrize("entry", ["facade", "supervised"])
    def test_unrecoverable_object_without_a_cache_name_is_removed(self, entry):
        cache = build_cache()
        object_id = self.uncached_unrecoverable(cache)
        if entry == "facade":
            assert object_id in cache.scrub().unrecoverable_objects
        else:
            cache.enable_supervision().scrubber.force_sweep()
        assert not cache.target.exists(object_id)
        assert object_id not in cache.array

"""Integration tests for the ReoCache facade: the paper's behaviours end-to-end."""

import pytest

from repro.core.classes import ObjectClass
from repro.core.policy import full_replication, reo_policy, uniform_parity
from repro.osd.types import DEVICE_TABLE, ROOT_DIRECTORY, SUPER_BLOCK

from tests.conftest import build_cache, register_uniform_objects


class TestDifferentiatedRedundancy:
    def test_hot_objects_get_promoted_after_reclassify(self):
        cache = build_cache(policy=reo_policy(0.4), cache_bytes=400_000, reclassify_interval=10**6)
        names = register_uniform_objects(cache, 20, 2_000)
        for name in names:
            cache.read(name)
        for _ in range(10):
            cache.read(names[0])
        changed = cache.manager.reclassify()
        assert changed >= 1
        assert cache.manager.get_cached(names[0]).class_id == int(ObjectClass.HOT_CLEAN)

    def test_promoted_object_survives_two_failures(self):
        cache = build_cache(policy=reo_policy(0.4), cache_bytes=400_000, reclassify_interval=10**6)
        names = register_uniform_objects(cache, 20, 2_000)
        for name in names:
            cache.read(name)
        for _ in range(10):
            cache.read(names[0])
        cache.manager.reclassify()
        cache.fail_device(0)
        cache.fail_device(1)
        assert cache.read(names[0]).hit

    def test_cold_objects_have_no_redundancy(self):
        cache = build_cache(policy=reo_policy(0.1))
        names = register_uniform_objects(cache, 10, 2_000)
        cache.read(names[0])
        cached = cache.manager.get_cached(names[0])
        assert cache.array.get_extent(cached.object_id).redundancy_bytes == 0

    def test_reserve_bounds_promotions(self):
        # With a tiny reserve, only a sliver of the cache can be hot.
        cache = build_cache(policy=reo_policy(0.1), cache_bytes=200_000, reclassify_interval=10**6)
        names = register_uniform_objects(cache, 50, 2_000)
        for name in names:
            cache.read(name)
            cache.read(name)
        cache.manager.reclassify()
        budget = cache.target.budget
        assert budget.used_bytes <= budget.budget_bytes * 1.05 + 10_000

    def test_uniform_policy_never_reclassifies(self):
        cache = build_cache(policy=uniform_parity(1), reclassify_interval=5)
        names = register_uniform_objects(cache, 10, 2_000)
        for name in names:
            cache.read(name)
        for _ in range(20):
            cache.read(names[0])
        assert cache.stats.reclassifications == 0


class TestGracefulDegradation:
    """The paper's headline failure behaviours (Fig. 8 mechanics)."""

    def _warmed(self, policy, cache_bytes=300_000):
        cache = build_cache(policy=policy, cache_bytes=cache_bytes, reclassify_interval=25)
        names = register_uniform_objects(cache, 30, 2_000)
        for _ in range(3):
            for name in names:
                cache.read(name)
        return cache, names

    def _hit_ratio_after(self, cache, names):
        cache.stats.reset()
        for name in names:
            cache.read(name)
        return cache.stats.hit_ratio

    def test_zero_parity_loses_everything_on_one_failure(self):
        cache, names = self._warmed(uniform_parity(0))
        cache.fail_device(0)
        assert self._hit_ratio_after(cache, names) == 0.0

    def test_one_parity_survives_one_failure_not_two(self):
        cache, names = self._warmed(uniform_parity(1))
        cache.fail_device(0)
        assert self._hit_ratio_after(cache, names) == 1.0
        cache.fail_device(1)
        # Everything still cached was refetched onto 4-wide stripes; the
        # original cached copies are gone. Reset and measure again.
        cache2, names2 = self._warmed(uniform_parity(1))
        cache2.fail_device(0)
        cache2.fail_device(1)
        assert self._hit_ratio_after(cache2, names2) == 0.0

    def test_reo_retains_protected_data_through_failures(self):
        # A tight 10% reserve protects only part of the cache, so one
        # failure loses the cold tail but keeps the hot head: graceful.
        cache, names = self._warmed(reo_policy(0.1))
        for _ in range(5):
            for name in names[:8]:
                cache.read(name)
        cache.manager.reclassify()
        cache.fail_device(0)
        ratio = self._hit_ratio_after(cache, names)
        # Cold objects are lost, but hot ones survive: graceful, not total.
        assert 0.0 < ratio < 1.0

    def test_reo_functional_with_single_surviving_device(self):
        cache, names = self._warmed(reo_policy(0.4))
        cache.write(names[0])  # dirty: fully replicated
        for device_id in range(4):
            cache.fail_device(device_id)
        result = cache.read(names[0])
        assert result.hit  # served from the lone survivor


class TestMetadataProtection:
    def test_exofs_metadata_class_zero(self):
        cache = build_cache()
        for object_id in (SUPER_BLOCK, DEVICE_TABLE, ROOT_DIRECTORY):
            assert cache.target.get_info(object_id).class_id == 0

    def test_metadata_survives_four_failures(self):
        cache = build_cache()
        for device_id in range(4):
            cache.fail_device(device_id)
        response = cache.target.read_object(SUPER_BLOCK)
        assert response.ok


class TestDirtyDataProtection:
    """Fig. 9 mechanics: Reo replicates only dirty data."""

    def test_full_replication_space_is_20_percent(self):
        cache = build_cache(policy=full_replication(), cache_bytes=300_000)
        names = register_uniform_objects(cache, 30, 2_000)
        for name in names:
            cache.read(name)
        assert cache.space_efficiency == pytest.approx(0.2, abs=0.01)

    def test_reo_space_tracks_dirty_ratio(self):
        cache = build_cache(policy=reo_policy(0.1), cache_bytes=300_000)
        names = register_uniform_objects(cache, 30, 2_000)
        for name in names:
            cache.read(name)
        clean_eff = cache.space_efficiency
        for name in names[:6]:
            cache.write(name)
        dirty_eff = cache.space_efficiency
        assert clean_eff > dirty_eff > 0.2

    def test_no_dirty_loss_within_tolerance(self):
        cache = build_cache(policy=reo_policy(0.1), cache_bytes=300_000)
        names = register_uniform_objects(cache, 10, 2_000)
        for name in names:
            cache.write(name)
        for device_id in range(4):
            cache.fail_device(device_id)
        cache.flush()
        # Every dirty object could still be flushed from the lone survivor.
        assert cache.stats.flushes == 10
        for name in names:
            assert cache.backend.version_of(name) == 1

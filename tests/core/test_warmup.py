"""Tests for the Bonfire-style warm-up advisor."""

from repro.core.policy import reo_policy
from repro.core.reo import ReoCache
from repro.core.warmup import WarmupAdvisor
from repro.flash.latency import ZERO_COST

from tests.conftest import build_cache, register_uniform_objects


def backend_with_history():
    cache = build_cache(cache_bytes=500_000)
    register_uniform_objects(cache, 20, 2_000)
    # Build a skewed access history on the backend via cache misses.
    for index in range(20):
        for _ in range(20 - index):
            cache.read(f"obj-{index}")
            # Evict everything so every read hits the backend.
            cache.manager._drop(f"obj-{index}", lost=False)
    return cache.backend


class TestPlan:
    def test_plan_orders_by_warmth(self):
        backend = backend_with_history()
        advisor = WarmupAdvisor(backend)
        plan = advisor.plan(budget_bytes=3 * 2_000)
        assert plan == ["obj-0", "obj-1", "obj-2"]

    def test_budget_respected(self):
        backend = backend_with_history()
        advisor = WarmupAdvisor(backend)
        plan = advisor.plan(budget_bytes=5 * 2_000)
        assert len(plan) == 5

    def test_zero_budget(self):
        backend = backend_with_history()
        assert WarmupAdvisor(backend).plan(0) == []


class TestPreload:
    def _fresh_cache(self, backend):
        from repro.core.reo import ReoCache

        cache = ReoCache.build(
            policy=reo_policy(0.2),
            cache_bytes=30_000,
            chunk_size=64,
            device_model=ZERO_COST,
            backend_model=ZERO_COST,
        )
        cache.backend = backend  # share the storage server
        cache.manager.backend = backend
        return cache

    def test_preload_fills_cache_with_warm_objects(self):
        backend = backend_with_history()
        cache = self._fresh_cache(backend)
        report = WarmupAdvisor(backend).preload(cache)
        assert report.objects_loaded > 0
        assert "obj-0" in cache.manager  # the warmest object made it

    def test_preload_resets_stats(self):
        backend = backend_with_history()
        cache = self._fresh_cache(backend)
        WarmupAdvisor(backend).preload(cache)
        assert cache.stats.requests == 0

    def test_preloaded_cache_hits_immediately(self):
        backend = backend_with_history()
        cold = self._fresh_cache(backend)
        warm = self._fresh_cache(backend)
        WarmupAdvisor(backend).preload(warm)
        for cache in (cold, warm):
            cache.stats.reset()
            for index in range(5):  # the warmest objects
                cache.read(f"obj-{index}")
        assert warm.stats.hit_ratio > cold.stats.hit_ratio
        assert warm.stats.hit_ratio == 1.0

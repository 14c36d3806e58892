"""Tests for cache statistics."""

import pytest

from repro.cache.stats import CacheStats

from tests.conftest import build_cache, register_uniform_objects


class TestCacheStats:
    def test_hit_ratio_empty(self):
        assert CacheStats().hit_ratio == 0.0

    def test_hit_ratio(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_ratio == pytest.approx(0.75)
        assert stats.hit_ratio_percent == pytest.approx(75.0)

    def test_requests_sum(self):
        stats = CacheStats(read_requests=5, write_requests=2)
        assert stats.requests == 7

    def test_class_hit_recording(self):
        stats = CacheStats()
        stats.record_class_hit(3)
        stats.record_class_hit(3)
        stats.record_class_hit(2)
        assert stats.hits_by_class == {3: 2, 2: 1}

    def test_reset_clears_everything(self):
        stats = CacheStats(hits=3, misses=1)
        stats.record_class_hit(2)
        stats.reset()
        assert stats.hits == 0
        assert stats.hits_by_class == {}

    def test_manager_populates_class_hits(self):
        cache = build_cache()
        register_uniform_objects(cache, 5, 2_000)
        cache.read("obj-0")
        cache.read("obj-0")  # hit on a cold-clean (class 3) object
        cache.write("obj-1")
        cache.read("obj-1")  # hit on a dirty (class 1) object
        assert cache.stats.hits_by_class.get(3) == 1
        assert cache.stats.hits_by_class.get(1) == 1

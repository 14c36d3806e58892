"""Tests for the cache manager: hits, misses, write-back, eviction."""

import pytest

from repro.core.classes import ObjectClass
from repro.core.policy import full_replication, reo_policy, uniform_parity
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse

from tests.conftest import build_cache, register_uniform_objects


def backend_payload(cache, name):
    """The bytes a backend read of ``name`` returns right now."""
    return cache.backend.payload_for(name, cache.backend.version_of(name))


class TestReadPath:
    def test_cold_miss_then_hit(self, small_cache):
        first = small_cache.read("obj-0")
        second = small_cache.read("obj-0")
        assert not first.hit and first.from_backend
        assert second.hit and not second.from_backend
        assert small_cache.stats.misses == 1
        assert small_cache.stats.hits == 1

    def test_hit_returns_correct_content_size(self, small_cache):
        result = small_cache.read("obj-3")
        assert result.num_bytes == 2_000

    def test_cached_content_matches_backend(self, small_cache):
        small_cache.read("obj-1")
        cached = small_cache.manager.get_cached("obj-1")
        payload, response = small_cache.initiator.read(cached.object_id)
        assert response.ok
        assert payload == backend_payload(small_cache, "obj-1")

    def test_lru_touch_on_hit(self, small_cache):
        small_cache.read("obj-0")
        small_cache.read("obj-1")
        small_cache.read("obj-0")  # obj-0 becomes MRU again
        assert small_cache.manager.evict_one()
        assert "obj-1" not in small_cache.manager
        assert "obj-0" in small_cache.manager

    def test_miss_latency_is_backend_latency(self):
        from repro.flash.latency import ServiceTimeModel

        backend_model = ServiceTimeModel(0.5, 0.5, 1e12, 1e12)
        cache = build_cache(backend_model=backend_model)
        register_uniform_objects(cache, 5, 1_000)
        result = cache.read("obj-0")
        assert result.latency == pytest.approx(0.5)


class TestEviction:
    def test_eviction_keeps_usage_below_capacity(self):
        cache = build_cache(cache_bytes=50_000, policy=uniform_parity(0))
        names = register_uniform_objects(cache, 100, 2_000)
        for name in names:
            cache.read(name)
        assert cache.array.used_bytes <= cache.target.usable_bytes
        assert cache.stats.evictions > 0

    def test_lru_victim_is_evicted(self):
        cache = build_cache(cache_bytes=12_000, policy=uniform_parity(0))
        names = register_uniform_objects(cache, 10, 2_000)
        cache.read(names[0])
        cache.read(names[1])
        # Metadata takes a slice; filling with more objects evicts names[0] first.
        for name in names[2:8]:
            cache.read(name)
        assert names[0] not in cache.manager

    def test_oversized_object_bypasses_cache(self):
        cache = build_cache(cache_bytes=10_000)
        cache.register_objects({"huge": 50_000})
        result = cache.read("huge")
        assert not result.hit
        assert "huge" not in cache.manager
        assert cache.stats.admission_bypasses == 1

    def test_object_larger_than_the_usable_bytes_evicts_nothing(self):
        cache = build_cache(cache_bytes=10_000, policy=uniform_parity(0))
        names = register_uniform_objects(cache, 3, 1_000)
        for name in names:
            cache.read(name)
        cache.register_objects({"huge": int(cache.target.usable_bytes) + 1})
        assert not cache.read("huge").hit
        assert list(cache.manager.cached_names()) == names
        assert cache.stats.evictions == 0
        assert cache.stats.admission_bypasses == 1

    def test_repeated_reads_of_bypassed_object_always_miss(self):
        cache = build_cache(cache_bytes=10_000)
        cache.register_objects({"huge": 50_000})
        cache.read("huge")
        result = cache.read("huge")
        assert not result.hit


class TestWriteBack:
    def test_write_marks_dirty_class_1(self, small_cache):
        small_cache.write("obj-0")
        cached = small_cache.manager.get_cached("obj-0")
        assert cached.dirty
        assert cached.class_id == int(ObjectClass.DIRTY)

    def test_write_of_cached_object_rewrites(self, small_cache):
        small_cache.read("obj-0")
        before_version = small_cache.manager.get_cached("obj-0").version
        small_cache.write("obj-0")
        cached = small_cache.manager.get_cached("obj-0")
        assert cached.version == before_version + 1
        assert cached.dirty

    def test_dirty_content_differs_from_backend(self, small_cache):
        small_cache.read("obj-0")
        clean_payload = backend_payload(small_cache, "obj-0")
        small_cache.write("obj-0")
        cached = small_cache.manager.get_cached("obj-0")
        payload, _ = small_cache.initiator.read(cached.object_id)
        assert payload != clean_payload

    def test_flush_all_syncs_backend(self, small_cache):
        small_cache.write("obj-0")
        cached = small_cache.manager.get_cached("obj-0")
        payload, _ = small_cache.initiator.read(cached.object_id)
        flushed = small_cache.flush()
        assert flushed == 1
        assert backend_payload(small_cache, "obj-0") == payload
        assert not small_cache.manager.get_cached("obj-0").dirty

    def test_dirty_eviction_flushes_first(self):
        cache = build_cache(cache_bytes=40_000, policy=reo_policy(0.4))
        names = register_uniform_objects(cache, 30, 2_000)
        cache.write(names[0])
        dirty_payload = None
        cached = cache.manager.get_cached(names[0])
        dirty_payload, _ = cache.initiator.read(cached.object_id)
        for name in names[1:]:
            cache.read(name)
        assert names[0] not in cache.manager  # evicted
        assert cache.stats.flushes >= 1
        assert backend_payload(cache, names[0]) == dirty_payload

    def test_dirty_replication_under_reo(self, small_cache):
        small_cache.write("obj-0")
        cached = small_cache.manager.get_cached("obj-0")
        extent = small_cache.array.get_extent(cached.object_id)
        assert extent.redundancy_bytes == 4 * extent.data_bytes

    def test_write_survives_four_device_failures(self, small_cache):
        small_cache.write("obj-0")
        for device_id in range(4):
            small_cache.fail_device(device_id)
        cached = small_cache.manager.get_cached("obj-0")
        payload, response = small_cache.initiator.read(cached.object_id)
        assert response.ok
        assert payload is not None

    def test_same_size_dirty_rewrite_near_the_watermark_evicts_nothing(self):
        # Fully replicated 2,000-byte objects store 10,000 bytes each. With
        # four cached, the old copy and the new one fit on the devices
        # together, but reserving room for the old copy a second time
        # would cross the usable bytes.
        cache = build_cache(cache_bytes=60_000, policy=full_replication())
        names = register_uniform_objects(cache, 4, 2_000)
        cache.write(names[0])
        for name in names[1:]:
            cache.read(name)
        stored = cache.array.stored_bytes_for(cache.manager.get_cached(names[0]).object_id)
        assert cache.array.used_bytes + stored <= cache.array.capacity_bytes
        assert cache.array.used_bytes + 2 * stored > cache.target.usable_bytes
        cache.write(names[0])
        assert cache.stats.evictions == 0
        assert sorted(cache.manager.cached_names()) == names
        assert cache.manager.get_cached(names[0]).version == 2

    def test_oversized_dirty_write_goes_straight_to_backend(self):
        cache = build_cache(cache_bytes=10_000)
        cache.register_objects({"huge": 50_000})
        before = cache.backend.version_of("huge")
        cache.write("huge")
        assert cache.backend.version_of("huge") == before + 1
        assert "huge" not in cache.manager


class TestDeviceFull:
    """The target answers a write that does not fit with sense 0x64."""

    @staticmethod
    def full_from(monkeypatch, cache, count):
        """Answer 0x64 to every write while ``count`` or more objects are cached."""
        write = cache.initiator.write

        def write_unless_full(object_id, payload, class_id=None):
            if len(cache.manager) >= count:
                return OsdResponse(SenseCode.CACHE_FULL)
            return write(object_id, payload, class_id)

        monkeypatch.setattr(cache.initiator, "write", write_unless_full)

    def test_admission_evicts_until_the_write_fits(self, monkeypatch):
        cache = build_cache(policy=uniform_parity(0))
        names = register_uniform_objects(cache, 5, 2_000)
        for name in names[:4]:
            cache.read(name)
        self.full_from(monkeypatch, cache, 3)
        cache.read(names[4])
        assert list(cache.manager.cached_names()) == names[2:]
        assert cache.stats.evictions == 2
        assert cache.stats.admission_bypasses == 0

    def test_clean_object_not_admitted_once_nothing_is_left(self, monkeypatch):
        cache = build_cache(policy=uniform_parity(0))
        names = register_uniform_objects(cache, 3, 2_000)
        cache.read(names[0])
        self.full_from(monkeypatch, cache, 0)
        cache.read(names[1])
        assert len(cache.manager) == 0
        assert cache.stats.admission_bypasses == 1

    def test_dirty_write_goes_to_backend_once_nothing_is_left(self, monkeypatch):
        cache = build_cache(policy=uniform_parity(0))
        names = register_uniform_objects(cache, 1, 2_000)
        self.full_from(monkeypatch, cache, 0)
        before = cache.backend.version_of(names[0])
        cache.write(names[0])
        assert cache.backend.version_of(names[0]) == before + 1
        assert names[0] not in cache.manager

    def test_dirty_rewrite_replaces_the_object_once_nothing_else_is_left(self, monkeypatch):
        cache = build_cache(policy=uniform_parity(0))
        names = register_uniform_objects(cache, 1, 2_000)
        cache.write(names[0])
        old_id = cache.manager.get_cached(names[0]).object_id
        self.full_from(monkeypatch, cache, 1)
        cache.write(names[0])
        cached = cache.manager.get_cached(names[0])
        assert cached.object_id != old_id
        assert not cache.target.exists(old_id)
        assert cached.dirty and cached.version == 2
        assert cache.stats.lost_objects == 0
        assert cache.stats.evictions == 0


class TestFailureSemantics:
    def test_lost_object_read_is_miss_without_degraded_admission(self, small_cache):
        small_cache.read("obj-0")  # cold clean, 0-parity under Reo
        small_cache.fail_device(0)
        result = small_cache.read("obj-0")
        assert not result.hit
        assert result.from_backend
        assert small_cache.stats.corruption_misses == 1
        assert small_cache.stats.lost_objects >= 1
        # Default policy: no clean admissions while the array is degraded.
        assert "obj-0" not in small_cache.manager

    def test_admission_resumes_after_spare_insertion(self, small_cache):
        small_cache.fail_device(0)
        small_cache.read("obj-0")
        assert "obj-0" not in small_cache.manager
        small_cache.replace_device(0)
        small_cache.read("obj-0")
        assert "obj-0" in small_cache.manager

    def test_write_to_lost_object_reinserts(self, small_cache):
        small_cache.read("obj-0")
        small_cache.fail_device(0)
        result = small_cache.write("obj-0")
        assert result.is_write
        cached = small_cache.manager.get_cached("obj-0")
        assert cached.dirty

    @pytest.mark.parametrize("name", ["obj-0", "obj-1"])
    def test_write_with_every_device_failed_goes_to_the_backend(self, small_cache, name):
        small_cache.read("obj-0")
        for device_id in range(5):
            small_cache.fail_device(device_id)
        before = small_cache.backend.version_of(name)
        small_cache.write(name)
        assert small_cache.backend.version_of(name) == before + 1
        assert name not in small_cache.manager
        assert small_cache.stats.admission_bypasses == 1

    def test_store_answering_fail_records_no_entry(self, monkeypatch, small_cache):
        monkeypatch.setattr(
            small_cache.initiator,
            "write",
            lambda object_id, payload, class_id=None: OsdResponse(SenseCode.FAIL),
        )
        before = small_cache.backend.version_of("obj-0")
        small_cache.read("obj-1")
        small_cache.write("obj-0")
        assert len(small_cache.manager) == 0
        assert small_cache.backend.version_of("obj-0") == before + 1
        assert small_cache.stats.admission_bypasses == 2

    def test_uniform_one_parity_survives_one_failure(self):
        cache = build_cache(policy=uniform_parity(1))
        register_uniform_objects(cache, 20, 2_000)
        cache.read("obj-0")
        cache.fail_device(2)
        result = cache.read("obj-0")
        assert result.hit
        assert result.degraded

    def test_full_replication_survives_four_failures(self):
        cache = build_cache(policy=full_replication())
        register_uniform_objects(cache, 5, 2_000)
        cache.read("obj-0")
        for device_id in range(1, 5):
            cache.fail_device(device_id)
        assert cache.read("obj-0").hit


class TestStats:
    def test_hit_ratio(self, small_cache):
        small_cache.read("obj-0")
        small_cache.read("obj-0")
        small_cache.read("obj-1")
        assert small_cache.stats.hit_ratio == pytest.approx(1 / 3)

    def test_requests_counts_reads_and_writes(self, small_cache):
        small_cache.read("obj-0")
        small_cache.write("obj-1")
        assert small_cache.stats.requests == 2
        assert small_cache.stats.read_requests == 1
        assert small_cache.stats.write_requests == 1

    def test_stats_reset(self, small_cache):
        small_cache.read("obj-0")
        small_cache.stats.reset()
        assert small_cache.stats.requests == 0
        assert small_cache.stats.hit_ratio == 0.0

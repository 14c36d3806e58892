"""Tests for differentiated recovery: triage, ordering, interleaving."""

import pytest

from repro.core.classes import ObjectClass
from repro.core.policy import reo_policy, uniform_parity
from repro.flash.array import ObjectHealth

from tests.conftest import build_cache, register_uniform_objects


def warm(cache, names):
    for name in names:
        cache.read(name)


class TestTriageAndRebuild:
    def test_recovery_rebuilds_protected_objects(self):
        cache = build_cache(policy=uniform_parity(1), cache_bytes=200_000)
        names = register_uniform_objects(cache, 20, 2_000)
        warm(cache, names)
        cache.fail_device(0)
        cache.replace_device(0)
        plan = cache.recovery.start()
        assert plan.pending > 0
        assert not plan.lost
        cache.recovery.run_to_completion()
        for name in names:
            cached = cache.manager.get_cached(name)
            assert cache.array.object_health(cached.object_id) is ObjectHealth.HEALTHY

    def test_lost_objects_are_purged(self):
        cache = build_cache(policy=uniform_parity(0), cache_bytes=200_000)
        names = register_uniform_objects(cache, 10, 2_000)
        warm(cache, names)
        cache.fail_device(0)
        cache.replace_device(0)
        plan = cache.recovery.start()
        # Under a uniform 0-parity policy the exofs metadata objects are as
        # unprotected as user data: 10 user + 3 metadata objects are lost.
        assert len(plan.lost) == 13
        assert plan.pending == 0
        assert len(cache.manager) == 0
        assert cache.stats.lost_objects == 10

    def test_recovery_flag_lifecycle(self):
        cache = build_cache(policy=uniform_parity(1), cache_bytes=200_000)
        names = register_uniform_objects(cache, 10, 2_000)
        warm(cache, names)
        cache.fail_device(0)
        cache.replace_device(0)
        cache.recovery.start()
        assert cache.target.recovery_active
        cache.recovery.run_to_completion()
        assert not cache.target.recovery_active
        assert not cache.recovery.active

    def test_empty_scan_means_inactive(self):
        cache = build_cache(policy=uniform_parity(1))
        register_uniform_objects(cache, 3, 2_000)
        plan = cache.recovery.start()
        assert plan.pending == 0
        assert not cache.recovery.active

    def test_step_returns_none_when_done(self):
        cache = build_cache(policy=uniform_parity(1))
        assert cache.recovery.step() is None


class TestPriorityOrder:
    def test_class_order_metadata_dirty_hot_cold(self):
        cache = build_cache(policy=reo_policy(0.4), cache_bytes=400_000, reclassify_interval=5)
        names = register_uniform_objects(cache, 20, 2_000)
        # Make some objects hot via repeated reads, one dirty via a write.
        warm(cache, names)
        for _ in range(10):
            cache.read(names[0])
        cache.write(names[1])
        cache.manager.reclassify()
        cache.fail_device(0)
        cache.replace_device(0)
        plan = cache.recovery.start()
        class_sequence = [
            cache.target.get_info(object_id).class_id for object_id in plan.to_rebuild
        ]
        assert class_sequence == sorted(class_sequence)
        # Metadata (class 0) rebuilds before everything else.
        assert class_sequence[0] == int(ObjectClass.METADATA)

    def test_within_class_order_is_object_id_not_hotness(self):
        """Known deviation 5: a class rebuilds in object-id order.

        The paper orders a class by descending hotness. Here the hotter
        object has the higher id, so adopting the paper's order flips the
        last two assertions.
        """
        cache = build_cache(policy=reo_policy(0.4), cache_bytes=400_000, reclassify_interval=10**6)
        names = register_uniform_objects(cache, 10, 2_000)
        warm(cache, names)
        colder, hotter = names[3], names[7]
        for _ in range(4):
            cache.read(colder)
        for _ in range(8):
            cache.read(hotter)
        cache.manager.reclassify()
        colder_id = cache.manager.get_cached(colder).object_id
        hotter_id = cache.manager.get_cached(hotter).object_id
        assert colder_id < hotter_id
        assert cache.manager.hotness.h_value(hotter) > cache.manager.hotness.h_value(colder)
        hot = int(ObjectClass.HOT_CLEAN)
        assert cache.target.get_info(colder_id).class_id == hot
        assert cache.target.get_info(hotter_id).class_id == hot
        cache.fail_device(0)
        cache.replace_device(0)
        plan = cache.recovery.start()
        hot_ids = [
            object_id
            for object_id in plan.to_rebuild
            if cache.target.get_info(object_id).class_id == hot
        ]
        assert colder_id in hot_ids and hotter_id in hot_ids
        assert hot_ids == sorted(hot_ids)
        assert hot_ids.index(colder_id) < hot_ids.index(hotter_id)


class TestInterleaving:
    def test_run_until_respects_deadline(self):
        cache = build_cache(
            policy=uniform_parity(1), cache_bytes=400_000, zero_cost=False
        )
        names = register_uniform_objects(cache, 40, 4_000)
        warm(cache, names)
        cache.fail_device(0)
        cache.replace_device(0)
        cache.recovery.start()
        deadline = cache.clock.now + 1e-4
        cache.recovery.run_until(deadline)
        if cache.recovery.active:
            # Stopped because the deadline hit, not because work ran out.
            assert cache.recovery.pending > 0
        # Clock may overshoot by at most one rebuild; it must have advanced.
        assert cache.clock.now >= deadline or not cache.recovery.active

    def test_second_failure_during_recovery(self):
        cache = build_cache(policy=uniform_parity(1), cache_bytes=400_000)
        names = register_uniform_objects(cache, 20, 2_000)
        warm(cache, names)
        cache.fail_device(0)
        cache.replace_device(0)
        cache.recovery.start()
        cache.recovery.step()  # partially recovered
        cache.fail_device(1)  # second failure mid-recovery
        # Remaining un-rebuilt objects now have 2 missing chunks with 1 parity.
        cache.recovery.run_to_completion()
        assert cache.recovery.objects_lost > 0

    def test_counters(self):
        cache = build_cache(policy=uniform_parity(1), cache_bytes=200_000)
        names = register_uniform_objects(cache, 10, 2_000)
        warm(cache, names)
        cache.fail_device(0)
        cache.replace_device(0)
        cache.recovery.start()
        cache.recovery.run_to_completion()
        assert cache.recovery.objects_rebuilt > 0
        assert cache.recovery.chunks_rebuilt >= cache.recovery.objects_rebuilt

    def test_recovery_sweep_reuses_decoder_matrices(self):
        # One failed device presents the same survivor pattern to every
        # stripe it touched, so the class sweep should invert each survivor
        # submatrix once (a few misses, one per geometry/pattern) and serve
        # the rest of the rebuild from the decoder cache.
        cache = build_cache(policy=uniform_parity(1), cache_bytes=400_000)
        names = register_uniform_objects(cache, 20, 2_000)
        warm(cache, names)
        cache.fail_device(0)
        cache.replace_device(0)
        cache.recovery.start()
        cache.recovery.run_to_completion()
        stats = cache.array.decoder_cache_stats()
        assert stats["misses"] >= 1
        assert stats["hits"] > stats["misses"]
        assert stats["entries"] <= stats["misses"]

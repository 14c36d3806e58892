"""Tests for the pluggable eviction policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.policies import (
    ArcPolicy,
    ClockPolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    make_eviction_policy,
)

ALL_POLICIES = [LruPolicy, FifoPolicy, LfuPolicy, ClockPolicy, ArcPolicy]


@pytest.mark.parametrize("policy_cls", ALL_POLICIES, ids=lambda c: c.name)
class TestCommonBehaviour:
    def test_touch_inserts(self, policy_cls):
        policy = policy_cls()
        policy.touch("a")
        assert "a" in policy
        assert len(policy) == 1

    def test_discard(self, policy_cls):
        policy = policy_cls()
        policy.touch("a")
        policy.discard("a")
        assert "a" not in policy
        policy.discard("a")  # idempotent

    def test_pop_victim_removes(self, policy_cls):
        policy = policy_cls()
        for key in ("a", "b", "c"):
            policy.touch(key)
        victim = policy.pop_victim()
        assert victim not in policy
        assert len(policy) == 2

    def test_pop_empty_raises(self, policy_cls):
        with pytest.raises((KeyError, StopIteration)):
            policy_cls().pop_victim()

    def test_iteration_covers_all_keys(self, policy_cls):
        # Drawing victims past an excluded key yields every other key once.
        policy = policy_cls()
        for key in ("a", "b", "c"):
            policy.touch(key)
        assert {policy.pop_victim(exclude="b") for _ in range(2)} == {"a", "c"}
        assert "b" in policy
        with pytest.raises(KeyError):
            policy.pop_victim(exclude="b")

    @given(st.lists(st.integers(min_value=0, max_value=10), max_size=50))
    def test_pop_until_empty_never_duplicates(self, policy_cls, touches):
        policy = policy_cls()
        for key in touches:
            policy.touch(key)
        popped = []
        while len(policy):
            popped.append(policy.pop_victim())
        assert sorted(popped) == sorted(set(touches))


class TestLru:
    def test_evicts_least_recent(self):
        policy = LruPolicy()
        for key in ("a", "b", "c"):
            policy.touch(key)
        policy.touch("a")
        assert policy.pop_victim() == "b"


class TestFifo:
    def test_access_does_not_promote(self):
        policy = FifoPolicy()
        for key in ("a", "b", "c"):
            policy.touch(key)
        policy.touch("a")  # still oldest
        assert policy.pop_victim() == "a"


class TestLfu:
    def test_evicts_least_frequent(self):
        policy = LfuPolicy()
        for key in ("a", "b", "c"):
            policy.touch(key)
        policy.touch("a")
        policy.touch("a")
        policy.touch("b")
        assert policy.pop_victim() == "c"

    def test_frequency_ties_break_by_age(self):
        policy = LfuPolicy()
        policy.touch("old")
        policy.touch("new")
        assert policy.pop_victim() == "old"


class TestClock:
    def test_second_chance(self):
        policy = ClockPolicy()
        for key in ("a", "b", "c"):
            policy.touch(key)
        policy.touch("a")  # reference bit set
        # Hand passes "a" (clearing its bit) and evicts "b".
        assert policy.pop_victim() == "b"

    def test_all_referenced_degenerates_to_fifo(self):
        policy = ClockPolicy()
        for key in ("a", "b"):
            policy.touch(key)
            policy.touch(key)
        assert policy.pop_victim() == "a"


class TestArc:
    def test_second_access_promotes_to_frequent(self):
        policy = ArcPolicy()
        policy.touch("a")
        policy.touch("b")
        policy.touch("a")  # a -> T2
        # Eviction prefers the once-seen T1 resident.
        assert policy.pop_victim() == "b"

    def test_ghost_hit_adapts_and_reinserts_as_frequent(self):
        policy = ArcPolicy()
        policy.touch("a")
        policy.touch("filler")
        victim = policy.pop_victim()  # lands in the B1 ghost list
        policy.touch(victim)  # ghost hit: back as frequent
        assert victim in policy
        policy.touch("x")
        # T1 residents ("filler", then "x") are evicted before the
        # ghost-promoted frequent entry in T2.
        assert policy.pop_victim() == "filler"
        assert victim in policy

    def test_frequent_side_evicts_when_recency_empty(self):
        policy = ArcPolicy()
        for key in ("a", "b"):
            policy.touch(key)
            policy.touch(key)  # all in T2
        assert policy.pop_victim() == "a"

    def test_ghost_lists_bounded(self):
        policy = ArcPolicy()
        for index in range(100):
            policy.touch(index)
            if index % 2:
                policy.pop_victim()
        assert len(policy._b1) <= len(policy) + 1


class TestFactory:
    def test_known_names(self):
        for name in ("lru", "fifo", "lfu", "clock", "arc"):
            assert make_eviction_policy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_eviction_policy("2q")


class TestManagerIntegration:
    def test_manager_runs_with_each_policy(self):
        from repro.core.policy import reo_policy
        from repro.core.reo import ReoCache
        from repro.flash.latency import ZERO_COST

        from tests.conftest import build_cache, register_uniform_objects

        for name in ("lru", "fifo", "lfu", "clock", "arc"):
            cache = ReoCache.build(
                policy=reo_policy(0.2),
                cache_bytes=30_000,
                chunk_size=64,
                device_model=ZERO_COST,
                backend_model=ZERO_COST,
                eviction_policy=name,
            )
            register_uniform_objects(cache, 30, 2_000)
            for index in range(30):
                cache.read(f"obj-{index}")
            cache.read("obj-0")
            assert cache.stats.evictions > 0, name
            assert cache.array.used_bytes <= cache.target.usable_bytes, name

    @staticmethod
    def _churned(name):
        """A policy after manager-driven evictions of twice-read objects."""
        from tests.conftest import register_uniform_objects
        from repro.core.reo import ReoCache
        from repro.flash.latency import ZERO_COST

        cache = ReoCache.build(
            cache_bytes=30_000,
            chunk_size=64,
            device_model=ZERO_COST,
            backend_model=ZERO_COST,
            eviction_policy=name,
        )
        for obj in register_uniform_objects(cache, 30, 2_000):
            cache.read(obj)
            cache.read(obj)
        assert cache.stats.evictions > 0
        return cache.manager._eviction

    def test_manager_evictions_record_arc_ghosts(self):
        policy = self._churned("arc")
        assert policy._b1 or policy._b2

    def test_manager_evictions_clear_clock_bits(self):
        policy = self._churned("clock")
        assert not all(policy._referenced.values())

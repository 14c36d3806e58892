"""Tests for the LRU queue of ``LruPolicy`` (the paper's replacement policy)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.policies import LruPolicy


class TestLruQueue:
    def test_touch_inserts(self):
        policy = LruPolicy()
        policy.touch("a")
        assert "a" in policy
        assert len(policy) == 1

    def test_pop_lru_order(self):
        policy = LruPolicy()
        for key in ("a", "b", "c"):
            policy.touch(key)
        assert policy.pop_victim() == "a"
        assert policy.pop_victim() == "b"

    def test_touch_moves_to_mru(self):
        policy = LruPolicy()
        for key in ("a", "b", "c"):
            policy.touch(key)
        policy.touch("a")
        assert policy.pop_victim() == "b"

    def test_pop_empty_raises(self):
        with pytest.raises(KeyError):
            LruPolicy().pop_victim()

    def test_discard_missing_ok(self):
        policy = LruPolicy()
        policy.discard("nope")

    def test_iteration_is_lru_to_mru(self):
        policy = LruPolicy()
        for key in ("a", "b", "c"):
            policy.touch(key)
        policy.touch("b")
        assert [policy.pop_victim() for _ in range(3)] == ["a", "c", "b"]

    @given(st.lists(st.integers(min_value=0, max_value=20)))
    def test_pop_order_matches_reference_model(self, touches):
        policy = LruPolicy()
        reference = []
        for key in touches:
            policy.touch(key)
            if key in reference:
                reference.remove(key)
            reference.append(key)
        popped = [policy.pop_victim() for _ in range(len(policy))]
        assert popped == reference

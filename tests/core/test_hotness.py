"""Tests for H-value tracking and the adaptive threshold."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hotness import HotnessTracker


class TestTracking:
    def test_register_and_h_value(self):
        tracker = HotnessTracker()
        tracker.register("a", size=100)
        assert tracker.h_value("a") == pytest.approx(1 / 100)

    def test_reads_increase_h(self):
        tracker = HotnessTracker()
        tracker.register("a", size=100)
        tracker.record_read("a")
        tracker.record_read("a")
        assert tracker.h_value("a") == pytest.approx(3 / 100)
        assert tracker.freq("a") == 3

    def test_smaller_objects_are_hotter_at_equal_freq(self):
        tracker = HotnessTracker()
        tracker.register("small", size=10)
        tracker.register("large", size=1000)
        assert tracker.h_value("small") > tracker.h_value("large")

    def test_unknown_key(self):
        tracker = HotnessTracker()
        assert tracker.h_value("nope") == 0.0
        assert tracker.freq("nope") == 0
        assert not tracker.is_hot("nope")
        tracker.record_read("nope")  # silently ignored

    def test_forget(self):
        tracker = HotnessTracker()
        tracker.register("a", size=10)
        tracker.forget("a")
        assert "a" not in tracker
        tracker.forget("a")  # idempotent

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            HotnessTracker().register("a", size=-1)

    def test_zero_size_has_zero_h(self):
        tracker = HotnessTracker()
        tracker.register("empty", size=0)
        assert tracker.h_value("empty") == 0.0


class TestAdaptiveThreshold:
    def test_nothing_hot_before_first_update(self):
        tracker = HotnessTracker()
        tracker.register("a", size=1)
        for _ in range(100):
            tracker.record_read("a")
        assert tracker.threshold == math.inf
        assert not tracker.is_hot("a")

    def test_budget_admits_hottest_first(self):
        tracker = HotnessTracker()
        tracker.register("hot", size=100)
        tracker.register("cold", size=100)
        for _ in range(9):
            tracker.record_read("hot")
        # Budget covers one object's overhead only (100 bytes * 1.0).
        tracker.update_threshold(budget_bytes=100, overhead_per_byte=1.0)
        assert tracker.is_hot("hot")
        assert not tracker.is_hot("cold")

    def test_threshold_is_last_admitted_h(self):
        tracker = HotnessTracker()
        tracker.register("a", size=10)
        tracker.register("b", size=20)
        tracker.record_read("a")
        # Budget admits both: threshold = H of "b" (the smaller one).
        tracker.update_threshold(budget_bytes=1000, overhead_per_byte=1.0)
        assert tracker.threshold == pytest.approx(1 / 20)
        assert tracker.is_hot("a") and tracker.is_hot("b")

    def test_zero_budget_means_nothing_hot(self):
        tracker = HotnessTracker()
        tracker.register("a", size=10)
        tracker.update_threshold(budget_bytes=0, overhead_per_byte=1.0)
        assert tracker.threshold == math.inf
        assert not tracker.is_hot("a")

    def test_infinite_overhead_means_nothing_hot(self):
        tracker = HotnessTracker()
        tracker.register("a", size=10)
        tracker.update_threshold(budget_bytes=100, overhead_per_byte=math.inf)
        assert not tracker.is_hot("a")

    def test_zero_frequency_objects_never_hot(self):
        # Freq starts at 1 on registration, so H = 0 comes from a zero size:
        # such an object is never hot, however often it is read.
        tracker = HotnessTracker()
        tracker.register("a", size=0)
        tracker.record_read("a")
        tracker.update_threshold(budget_bytes=10**9, overhead_per_byte=0.1)
        assert not tracker.is_hot("a")

    def test_threshold_adapts_down_when_budget_grows(self):
        tracker = HotnessTracker()
        for index in range(10):
            tracker.register(f"o{index}", size=100)
            for _ in range(10 - index):
                tracker.record_read(f"o{index}")
        tracker.update_threshold(budget_bytes=200, overhead_per_byte=1.0)
        tight = tracker.threshold
        tracker.update_threshold(budget_bytes=800, overhead_per_byte=1.0)
        loose = tracker.threshold
        assert loose < tight
        assert sum(tracker.is_hot(f"o{index}") for index in range(10)) == 8

    def test_update_counter(self):
        tracker = HotnessTracker()
        tracker.update_threshold(100, 1.0)
        tracker.update_threshold(100, 1.0)
        assert tracker.updates == 2

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=1000),  # size
                st.integers(min_value=0, max_value=50),  # reads
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.0, max_value=10_000.0),
    )
    def test_hot_set_overhead_never_exceeds_budget(self, specs, budget):
        tracker = HotnessTracker()
        for index, (size, reads) in enumerate(specs):
            key = f"k{index}"
            tracker.register(key, size=size)
            for _ in range(reads):
                tracker.record_read(key)
        overhead_per_byte = 2 / 3  # 2-parity on 5 devices
        tracker.update_threshold(budget, overhead_per_byte)
        hot_overhead = sum(
            size * overhead_per_byte
            for index, (size, _reads) in enumerate(specs)
            if tracker.is_hot(f"k{index}")
        )
        # Ties at the threshold may admit a few extra same-H objects; allow
        # the documented greedy bound: strictly-above-threshold mass fits.
        strictly_above = sum(
            size * overhead_per_byte
            for index, (size, _reads) in enumerate(specs)
            if tracker.h_value(f"k{index}") > tracker.threshold
        )
        assert strictly_above <= budget + 1e-6 or math.isinf(tracker.threshold)

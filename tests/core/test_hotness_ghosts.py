"""Tests for the ghost-history behaviour of the hotness tracker."""

import pytest

from repro.core import hotness
from repro.core.hotness import HotnessTracker


class TestGhostHistory:
    def test_reregistration_restores_decayed_freq(self):
        tracker = HotnessTracker()
        tracker.register("a", size=100)
        for _ in range(9):
            tracker.record_read("a")  # freq = 10
        tracker.forget("a")
        tracker.register("a", size=100)
        # Ghost keeps freq // 2 = 5; re-admission adds the initial 1.
        assert tracker.freq("a") == 6

    def test_ghost_halves_on_each_eviction_cycle(self):
        tracker = HotnessTracker()
        tracker.register("a", size=10)
        for _ in range(15):
            tracker.record_read("a")  # freq = 16
        tracker.forget("a")  # ghost 8
        tracker.register("a", size=10)  # freq 9
        tracker.forget("a")  # ghost 4
        tracker.register("a", size=10)
        assert tracker.freq("a") == 5

    def test_low_freq_objects_leave_no_ghost(self):
        tracker = HotnessTracker()
        tracker.register("once", size=10)  # freq 1 -> ghost 0
        tracker.forget("once")
        tracker.register("once", size=10)
        assert tracker.freq("once") == 1

    def test_ghost_capacity_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(hotness, "GHOST_CAPACITY", 2)
        tracker = HotnessTracker()
        for name in ("a", "b", "c"):
            tracker.register(name, size=10)
            tracker.record_read(name)
            tracker.forget(name)
        # "a" fell off the FIFO; "b" and "c" survive.
        assert tracker.projected_h("a", 10) == pytest.approx(1 / 10)
        assert tracker.projected_h("c", 10) == pytest.approx(2 / 10)

    def test_zero_capacity_disables_ghosts(self, monkeypatch):
        monkeypatch.setattr(hotness, "GHOST_CAPACITY", 0)
        tracker = HotnessTracker()
        tracker.register("a", size=10)
        for _ in range(9):
            tracker.record_read("a")
        tracker.forget("a")
        tracker.register("a", size=10)
        assert tracker.freq("a") == 1


class TestInsertTimeHotness:
    def test_would_be_hot_consults_ghosts(self):
        tracker = HotnessTracker()
        tracker.register("popular", size=100)
        for _ in range(19):
            tracker.record_read("popular")
        tracker.register("cold", size=100)
        # A generous budget admits both: the threshold lands on cold's H.
        tracker.update_threshold(budget_bytes=1_000, overhead_per_byte=1.0)
        threshold = tracker.threshold
        assert threshold == pytest.approx(1 / 100)
        tracker.forget("popular")
        # About to re-enter: ghost freq 10 + 1 = 11 -> H = 0.11 >= threshold.
        assert tracker.projected_h("popular", 100) >= threshold
        assert tracker.would_be_hot("popular", 100)
        # A fresh stranger with lower projected H than the cutoff stays cold.
        assert not tracker.would_be_hot("cold-stranger", 200)

    def test_would_be_hot_zero_size(self):
        tracker = HotnessTracker()
        tracker.update_threshold(budget_bytes=100, overhead_per_byte=1.0)
        assert not tracker.would_be_hot("x", 0)

    def test_projected_h_without_ghost(self):
        tracker = HotnessTracker()
        assert tracker.projected_h("fresh", 50) == pytest.approx(1 / 50)

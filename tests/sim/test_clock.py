"""Tests for the simulated clock."""

import pytest

from repro.sim.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0
        assert clock.now == 2.0

    def test_advance_zero_ok(self):
        clock = SimClock()
        clock.advance_to(3.0)
        clock.advance(0.0)
        assert clock.now == 3.0

    def test_advance_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock()
        clock.advance_to(10.0)
        clock.advance_to(4.0)
        assert clock.now == 10.0

    def test_repr(self):
        assert "SimClock" in repr(SimClock())

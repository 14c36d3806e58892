"""A simulated wall clock.

The whole library is a synchronous simulation: every I/O path computes the
simulated service time it would have consumed and the caller advances this
clock. Bandwidth numbers are then *bytes served / simulated seconds* and
latency numbers are simulated seconds per request, which is what lets a
laptop-scale run reproduce the shapes of the paper's testbed measurements.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """Monotonically advancing simulated time, in seconds, from zero."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance by a non-negative duration; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance to an absolute time; no-op if it is already in the past."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"

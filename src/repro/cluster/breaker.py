"""Per-shard circuit breaking for the routing client.

A shard that stops answering turns every routed command into a full
timeout-and-retry cycle; under fan-out (mirrored writes, striped reads)
one dead shard would serialize the whole operation behind its timeouts.
The breaker converts that into a fast local failure:

- **closed** — traffic flows; consecutive failures are counted (any
  success resets the count — network noise must not accumulate).
- **open** — after :data:`THRESHOLD` consecutive failures, requests
  fast-fail with :class:`CircuitOpenError` without touching the wire, for
  :data:`COOLDOWN_S` seconds.
- **half-open** — after the cooldown, exactly one trial request is let
  through; success closes the breaker, failure re-opens it (and restarts
  the cooldown from the failure instant).

:class:`CircuitOpenError` subclasses
:class:`~repro.net.client.OsdServiceError`, so every existing failover
path (mirror reads, degraded stripe reconstruction) treats a fast-fail
exactly like a wire failure — the breaker changes *latency*, never
*reachability semantics*. Active :class:`~repro.cluster.health.ShardProbe`
heartbeats bypass the breaker by design: they are the evidence stream
that decides whether the shard deserves to come back.

The breaker holds no clock; callers pass ``now`` (event-loop time), which
keeps the state machine unit-testable without sleeping.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.client import OsdServiceError

__all__ = ["CircuitBreaker", "CircuitOpenError"]

#: Consecutive failures that open a breaker.
THRESHOLD = 3
#: Seconds an open breaker rejects traffic before one half-open trial.
COOLDOWN_S = 0.25


class CircuitOpenError(OsdServiceError):
    """Fast-fail: the target shard's breaker is open."""

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"circuit open for shard {shard_id}")
        self.shard_id = shard_id


class CircuitBreaker:
    """One shard's closed/open/half-open state machine."""

    def __init__(self) -> None:
        self.state = "closed"  # "closed" | "open" | "half_open"
        self.failures = 0
        self.opened_at: Optional[float] = None
        #: A half-open trial request is currently in flight.
        self._probing = False
        #: Times the breaker tripped open (including re-opens).
        self.opens = 0

    def allow(self, now: float) -> bool:
        """May a request proceed at ``now``? (May move open → half-open.)"""
        if self.state == "closed":
            return True
        if self.state == "open":
            assert self.opened_at is not None
            if now - self.opened_at < COOLDOWN_S:
                return False
            self.state = "half_open"
            self._probing = True
            return True
        # half-open: exactly one trial in flight at a time.
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self, now: float) -> None:
        self._probing = False
        if self.state == "half_open":
            self._trip(now)
            return
        self.failures += 1
        if self.state == "closed" and self.failures >= THRESHOLD:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = "open"
        self.opened_at = now
        self.failures = THRESHOLD
        self.opens += 1

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, failures={self.failures}, "
            f"opens={self.opens})"
        )


class BreakerBank:
    """Lazy per-shard breakers."""

    def __init__(self) -> None:
        self.breakers: Dict[int, CircuitBreaker] = {}

    def of(self, shard_id: int) -> CircuitBreaker:
        breaker = self.breakers.get(shard_id)
        if breaker is None:
            breaker = CircuitBreaker()
            self.breakers[shard_id] = breaker
        return breaker

    def reset(self, shard_id: int) -> None:
        """Forget a shard's breaker (re-admit after repair)."""
        self.breakers.pop(shard_id, None)

    def open_count(self) -> int:
        return sum(b.opens for b in self.breakers.values())

"""Service-side counters and latency percentiles for the OSD server.

The server aggregates these and answers ``#QUERY#`` control writes naming
:data:`~repro.osd.types.SERVICE_STATS_OBJECT` with a JSON snapshot —
mirroring the paper's OID 0x10004 control-object semantics, but answered by
the service layer itself rather than the target. Its p50/p99 come from the
last :data:`LATENCY_WINDOW` service times; its count and mean cover every
command since the server started.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Service times a :class:`LatencyReservoir` keeps for its percentiles.
LATENCY_WINDOW = 4096


class LatencyReservoir:
    """Bounded sample of recent service times for percentile estimates.

    Keeps the last :data:`LATENCY_WINDOW` observations (a sliding window
    rather than a decaying reservoir: the stats endpoint is about *current*
    service quality, and a window of a few thousand commands smooths noise
    without remembering cold-start latencies forever).
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._window: List[float] = []
        self._cursor = 0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if len(self._window) < LATENCY_WINDOW:
            self._window.append(seconds)
        else:
            self._window[self._cursor] = seconds
            self._cursor = (self._cursor + 1) % LATENCY_WINDOW

    def percentiles(self, *fractions: float) -> List[float]:
        """Latency at each of ``fractions`` (0..1) of the current window.

        One sort serves every fraction asked for; zeros if the window is empty.
        """
        ordered = sorted(self._window)
        if not ordered:
            return [0.0] * len(fractions)
        last = len(ordered) - 1
        return [ordered[min(last, int(f * len(ordered)))] for f in fractions]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class ServiceStats:
    """Aggregate counters for one server's lifetime."""

    connections_total: int = 0
    connections_active: int = 0
    in_flight: int = 0
    max_in_flight: int = 0
    commands: int = 0
    sense_errors: int = 0
    wire_errors: int = 0
    busy_rejections: int = 0
    retries_seen: int = 0
    #: ``writelines`` calls the connections' flushers made;
    #: ``commands / flushes`` is the realized coalescing factor.
    flushes: int = 0
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)

    def begin_command(self) -> None:
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)

    def end_command(self, seconds: float, ok: bool) -> None:
        self.in_flight -= 1
        self.commands += 1
        if not ok:
            self.sense_errors += 1
        self.latency.record(seconds)

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable view served by the stats endpoint."""
        p50, p99 = self.latency.percentiles(0.50, 0.99)
        return {
            "connections_total": self.connections_total,
            "connections_active": self.connections_active,
            "in_flight": self.in_flight,
            "max_in_flight": self.max_in_flight,
            "commands": self.commands,
            "sense_errors": self.sense_errors,
            "wire_errors": self.wire_errors,
            "busy_rejections": self.busy_rejections,
            "retries_seen": self.retries_seen,
            "flushes": self.flushes,
            "latency": {
                "count": self.latency.count,
                "mean_ms": self.latency.mean * 1e3,
                "p50_ms": p50 * 1e3,
                "p99_ms": p99 * 1e3,
            },
        }

    def to_json(self) -> bytes:
        return json.dumps(self.snapshot(), sort_keys=True).encode("ascii")


def parse_stats_payload(payload: Optional[bytes]) -> Dict[str, object]:
    """Decode a stats-endpoint response payload."""
    if not payload:
        raise ValueError("empty stats payload")
    return json.loads(payload.decode("ascii"))


#: Snapshot counters summed across shards by :func:`merge_snapshots`.
_ADDITIVE_KEYS = (
    "connections_total",
    "connections_active",
    "in_flight",
    "max_in_flight",
    "commands",
    "sense_errors",
    "wire_errors",
    "busy_rejections",
    "retries_seen",
    "flushes",
)


def merge_snapshots(snapshots: List[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate per-shard :meth:`ServiceStats.snapshot` dicts.

    Counters sum (``max_in_flight`` sums too: the shards run concurrently,
    so their peak depths add). Latency merges from summaries, which is the
    best a snapshot allows: counts and means combine exactly
    (count-weighted); p50/p99 take the worst shard's value — a
    conservative bound rather than a true pooled percentile.
    """
    totals: Dict[str, int] = {counter: 0 for counter in _ADDITIVE_KEYS}
    count = 0
    weighted_mean = 0.0
    p50 = 0.0
    p99 = 0.0
    for snapshot in snapshots:
        for counter in _ADDITIVE_KEYS:
            value = snapshot.get(counter, 0)
            totals[counter] += value if isinstance(value, int) else 0
        latency = snapshot.get("latency")
        if isinstance(latency, dict):
            n = int(latency.get("count", 0))
            count += n
            weighted_mean += float(latency.get("mean_ms", 0.0)) * n
            p50 = max(p50, float(latency.get("p50_ms", 0.0)))
            p99 = max(p99, float(latency.get("p99_ms", 0.0)))
    merged: Dict[str, object] = dict(totals)
    merged["shards"] = len(snapshots)
    merged["latency"] = {
        "count": count,
        "mean_ms": weighted_mean / count if count else 0.0,
        "p50_ms": p50,
        "p99_ms": p99,
    }
    return merged

"""Metrics collection for simulated runs.

The paper reports three top-line metrics — cache hit ratio, bandwidth
(MB/sec), and per-request latency (ms) — both as end-of-run aggregates
(Figs. 5-7, 9) and as series across failure/recovery events (Fig. 8).
:class:`MetricsRecorder` captures per-request samples and produces both
views: a :class:`RunMetrics` summary and per-window :class:`WindowMetrics`
slices keyed by request index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.units import MB, MILLISECOND

__all__ = ["MetricsRecorder", "RequestSample", "RunMetrics", "WindowMetrics"]


@dataclass(frozen=True)
class RequestSample:
    """One completed cache request."""

    timestamp: float
    latency: float
    num_bytes: int
    hit: bool
    is_write: bool = False


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile on a pre-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[rank]


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate metrics over a span of requests."""

    requests: int
    hits: int
    reads: int
    writes: int
    bytes_served: int
    #: Simulated seconds spanned by the aggregated requests.
    elapsed_seconds: float
    mean_latency: float
    median_latency: float
    p99_latency: float

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served from cache, in [0, 1]."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def hit_ratio_percent(self) -> float:
        return 100.0 * self.hit_ratio

    @property
    def bandwidth(self) -> float:
        """Bytes served per simulated second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.bytes_served / self.elapsed_seconds

    @property
    def bandwidth_mb_per_sec(self) -> float:
        """The paper's decimal MB/sec convention."""
        return self.bandwidth / MB

    @property
    def mean_latency_ms(self) -> float:
        return self.mean_latency / MILLISECOND


@dataclass(frozen=True)
class WindowMetrics:
    """Aggregates for one window of the run (e.g. between failure points)."""

    label: str
    start_request: int
    end_request: int
    metrics: RunMetrics


@dataclass
class MetricsRecorder:
    """Collects request samples and slices them into summaries."""

    samples: List[RequestSample] = field(default_factory=list)
    _marks: List[int] = field(default_factory=list)
    _mark_labels: List[str] = field(default_factory=list)

    def record(
        self,
        timestamp: float,
        latency: float,
        num_bytes: int,
        hit: bool,
        is_write: bool = False,
    ) -> None:
        """Append one completed request."""
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self.samples.append(RequestSample(timestamp, latency, num_bytes, hit, is_write))

    def mark(self, label: str) -> None:
        """Drop a window boundary at the current request index.

        Used by the failure experiments: a mark at each failure injection
        splits the run into per-failure-count windows.
        """
        self._marks.append(len(self.samples))
        self._mark_labels.append(label)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summarize(self, start: int = 0, end: Optional[int] = None) -> RunMetrics:
        """Aggregate the samples in ``[start, end)`` (request indices)."""
        window = self.samples[start:end]
        if not window:
            return RunMetrics(0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0)
        latencies = sorted(sample.latency for sample in window)
        hits = sum(1 for sample in window if sample.hit)
        writes = sum(1 for sample in window if sample.is_write)
        bytes_served = sum(sample.num_bytes for sample in window)
        first = window[0]
        last = window[-1]
        elapsed = (last.timestamp + last.latency) - first.timestamp
        return RunMetrics(
            requests=len(window),
            hits=hits,
            reads=len(window) - writes,
            writes=writes,
            bytes_served=bytes_served,
            elapsed_seconds=max(elapsed, 0.0),
            mean_latency=sum(latencies) / len(latencies),
            median_latency=_percentile(latencies, 0.5),
            p99_latency=_percentile(latencies, 0.99),
        )

    def windows(self) -> List[WindowMetrics]:
        """Slice the run at the recorded marks.

        With marks at indices ``m1 < m2 < ...`` this yields windows
        ``[0, m1)``, ``[m1, m2)``, ..., ``[mk, len)``; the first window is
        labelled ``"start"`` and subsequent windows carry the mark labels.
        """
        boundaries = [0, *self._marks, len(self.samples)]
        labels = ["start", *self._mark_labels]
        result: List[WindowMetrics] = []
        for index in range(len(boundaries) - 1):
            start, end = boundaries[index], boundaries[index + 1]
            result.append(
                WindowMetrics(
                    label=labels[index],
                    start_request=start,
                    end_request=end,
                    metrics=self.summarize(start, end),
                )
            )
        return result

    def reset(self) -> None:
        self.samples.clear()
        self._marks.clear()
        self._mark_labels.clear()

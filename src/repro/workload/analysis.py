"""Trace analysis: the statistics that determine caching behaviour.

Characterizes a :class:`~repro.workload.trace.Trace` the way the paper's
§VI-A characterizes its workloads — request counts, footprint, accessed
bytes — plus the derived properties that explain the measured hit ratios:
popularity skew, and one exact Mattson pass giving every request's LRU
stack distance in bytes, from which the hit ratio of a byte-capacity LRU
cache of any size is a count. Under a uniform scheme the cache manager is
such a cache: the target's usable bytes over the scheme's storage
multiplier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.report import format_table
from repro.workload.trace import Trace

__all__ = [
    "TraceProfile",
    "estimate_zipf_alpha",
    "footprint_curve",
    "profile_trace",
    "reuse_distances",
]

#: Share of the rank-frequency curve, most popular first, the Zipf fit uses.
ZIPF_HEAD_FRACTION = 0.5


@dataclass
class TraceProfile:
    """Summary statistics of one trace."""

    name: str
    requests: int
    write_ratio: float
    unique_objects: int
    objects_accessed: int
    total_bytes: int
    accessed_bytes: int
    mean_object_size: float
    #: Fraction of requests landing on the top 1% / 10% of objects.
    top_1pct_share: float
    top_10pct_share: float
    #: Median LRU stack distance of the reuses, in bytes (None if no reuse).
    median_reuse_distance: "float | None"
    #: (cache fraction of data set, LRU hit ratio) samples.
    footprint: List[Tuple[float, float]] = field(default_factory=list)

    def format(self) -> str:
        rows = [
            ["requests", self.requests],
            ["write ratio", f"{self.write_ratio:.2f}"],
            ["unique objects (catalog)", self.unique_objects],
            ["objects accessed", self.objects_accessed],
            ["data set", f"{self.total_bytes / 1e6:.1f} MB"],
            ["bytes accessed", f"{self.accessed_bytes / 1e6:.1f} MB"],
            ["mean object size", f"{self.mean_object_size / 1e3:.1f} KB"],
            ["top 1% objects' request share", f"{100 * self.top_1pct_share:.1f}%"],
            ["top 10% objects' request share", f"{100 * self.top_10pct_share:.1f}%"],
            [
                "median reuse distance (bytes)",
                "-" if self.median_reuse_distance is None else f"{self.median_reuse_distance:.0f}",
            ],
        ]
        footprint_rows = [
            [f"LRU hit ratio @ {100 * fraction:.0f}% cache", f"{100 * ratio:.1f}%"]
            for fraction, ratio in self.footprint
        ]
        return format_table(
            f"Workload profile: {self.name}", ["Statistic", "Value"], rows + footprint_rows
        )


def reuse_distances(trace: Trace) -> List[Optional[int]]:
    """Each request's LRU stack distance in bytes; None for a first request.

    The distance is the bytes of the distinct objects requested since the
    object's previous request, itself included. A byte-capacity LRU cache of
    ``C`` bytes, with no requested object larger than ``C``, hits exactly the
    requests at distance <= ``C``: evicting until the new object fits keeps
    the largest recent stack prefix that fits. One pass, O(N log N), over a
    Fenwick tree of sizes at latest requests.
    """
    tree = [0] * (len(trace) + 1)

    def add(index: int, delta: int) -> None:
        while index < len(tree):
            tree[index] += delta
            index += index & -index

    latest: Dict[str, int] = {}
    resident = 0  # bytes of the distinct objects requested so far
    distances: List[Optional[int]] = []
    for position, record in enumerate(trace, 1):
        size = trace.catalog[record.name]
        previous = latest.get(record.name)
        if previous is None:
            distances.append(None)
            resident += size
        else:
            index, below = previous, 0  # bytes last requested at or before ``previous``
            while index:
                below += tree[index]
                index &= index - 1
            distances.append(resident - below + size)
            add(previous, -size)
        add(position, size)
        latest[record.name] = position
    return distances


def footprint_curve(
    trace: Trace, fractions: Tuple[float, ...] = (0.04, 0.06, 0.08, 0.10, 0.12)
) -> List[Tuple[float, float]]:
    """Exact LRU hit ratio at cache sizes given as fractions of the data set.

    The paper's x-axis (cache size 4-12% of the workload data set). An
    object larger than the cache is never admitted: its requests miss and
    take no stack room, so such a capacity gets its own pass without them.
    """
    distances = reuse_distances(trace)
    largest = max((trace.catalog[record.name] for record in trace), default=0)
    curve: List[Tuple[float, float]] = []
    for fraction in fractions:
        capacity = fraction * trace.total_bytes
        fitting = distances
        if largest > capacity:
            kept = [record for record in trace if trace.catalog[record.name] <= capacity]
            fitting = reuse_distances(Trace(trace.name, trace.catalog, kept))
        hits = sum(1 for distance in fitting if distance is not None and distance <= capacity)
        curve.append((fraction, hits / max(1, len(trace))))
    return curve


def estimate_zipf_alpha(trace: Trace) -> float:
    """Estimate the Zipf exponent from the rank-frequency curve.

    Fits a line to ``log(frequency)`` vs ``log(rank)`` over the head of the
    distribution, its :data:`ZIPF_HEAD_FRACTION` most popular objects (the
    tail of a finite sample bends away from the power law); the negated
    slope is the exponent. Lets a trace of unknown origin be placed on the
    paper's weak/medium/strong locality axis.
    """
    import numpy as np

    counts = sorted(
        Counter(record.name for record in trace).values(), reverse=True
    )
    if len(counts) < 3:
        return 0.0
    head = max(3, int(len(counts) * ZIPF_HEAD_FRACTION))
    ranks = np.arange(1, head + 1, dtype=np.float64)
    frequencies = np.asarray(counts[:head], dtype=np.float64)
    slope, _intercept = np.polyfit(np.log(ranks), np.log(frequencies), 1)
    return float(max(0.0, -slope))


def profile_trace(trace: Trace) -> TraceProfile:
    """Compute the full profile of a trace."""
    counts = Counter(record.name for record in trace)
    ranked_counts = sorted(counts.values(), reverse=True)
    total_requests = len(trace)

    def top_share(fraction: float) -> float:
        top_n = max(1, int(len(ranked_counts) * fraction))
        return sum(ranked_counts[:top_n]) / total_requests if total_requests else 0.0

    distances = sorted(d for d in reuse_distances(trace) if d is not None)
    median = float(distances[len(distances) // 2]) if distances else None
    return TraceProfile(
        name=trace.name,
        requests=total_requests,
        write_ratio=trace.write_ratio,
        unique_objects=len(trace.catalog),
        objects_accessed=trace.unique_objects_accessed(),
        total_bytes=trace.total_bytes,
        accessed_bytes=trace.accessed_bytes,
        mean_object_size=(
            trace.total_bytes / len(trace.catalog) if trace.catalog else 0.0
        ),
        top_1pct_share=top_share(0.01),
        top_10pct_share=top_share(0.10),
        median_reuse_distance=median,
        footprint=footprint_curve(trace),
    )

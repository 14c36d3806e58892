"""Shared experiment configuration (paper §VI-A).

The testbed constants reproduced here: five flash devices, chunk size 64 KB
for the normal-run and write experiments and 1 MB for the failure
experiments, cache sized as a percentage of the workload data set, and the
six compared schemes (0/1/2-parity uniform protection, Reo-10/20/40%), plus
full replication for §VI-D.

Every driver replays its trace through :func:`replay` and returns one of two
result types: a :class:`Figure` (a row per x value, a column per scheme, a
block per metric) or a :class:`Table` (a row per variant, a column per
metric).

Scaling: a profile divides object sizes *and device fixed costs* by the same
factor, which leaves bandwidths (bytes / time) and all capacity ratios
unchanged while shrinking runtimes by orders of magnitude. Reported
latencies are rescaled back (multiplied by the scale factor) so they are
comparable to the paper's milliseconds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.core.policy import (
    RedundancyPolicy,
    full_replication,
    reo_policy,
    uniform_parity,
)
from repro.core.reo import ReoCache
from repro.flash.latency import HDD_7200RPM, INTEL_540S_SSD, NETWORK_10GBE, ServiceTimeModel
from repro.sim.metrics import RunMetrics
from repro.sim.plotting import ascii_chart
from repro.sim.report import format_figure_series, format_table
from repro.sim.runner import ExperimentRunner, FailureEvent, RunResult
from repro.units import KiB
from repro.workload.medisyn import Locality, MediSynConfig, generate_workload
from repro.workload.trace import Trace

__all__ = [
    "BANDWIDTH",
    "CACHE_PERCENT",
    "Figure",
    "HIT",
    "LATENCY",
    "NORMAL_RUN_POLICIES",
    "Profile",
    "PROFILES",
    "Table",
    "active_profile",
    "build_experiment_cache",
    "make_policy",
    "make_trace",
    "measures",
    "replay",
]

#: The six schemes of Figs. 5-8, in the paper's legend order.
NORMAL_RUN_POLICIES = (
    "0-parity",
    "1-parity",
    "2-parity",
    "Reo-10%",
    "Reo-20%",
    "Reo-40%",
)

#: Cache size, in percent of the data set, of every driver that does not
#: sweep it (the paper's Figs. 8 and 9 run at 10 %).
CACHE_PERCENT = 10


@dataclass(frozen=True)
class Profile:
    """A runtime/fidelity trade-off for the experiment suite."""

    name: str
    #: Object sizes and device fixed costs are divided by this.
    size_scale: float
    #: Request counts are multiplied by this.
    request_fraction: float
    #: Stripe chunk size for the normal-run and write-back experiments
    #: (paper: 64 KB).
    chunk_size: int
    #: Stripe chunk size for the failure experiments (paper: 1 MB).
    failure_chunk_size: int
    #: Leading fraction of each trace excluded from recorded metrics.
    warmup_fraction: float = 0.3
    #: Background-recovery time share while recovery is active.
    recovery_share: float = 0.3
    #: Reads between H_hot recomputations.
    reclassify_interval: int = 500

    def requests_for(self, locality: Locality) -> int:
        return max(200, int(locality.paper_request_count * self.request_fraction))

    def scaled_device_model(self) -> ServiceTimeModel:
        return _scale_model(INTEL_540S_SSD, self.size_scale)

    def scaled_backend_model(self) -> ServiceTimeModel:
        return _scale_model(HDD_7200RPM.combine(NETWORK_10GBE), self.size_scale)


def _scale_model(model: ServiceTimeModel, scale: float) -> ServiceTimeModel:
    """Divide fixed costs by ``scale`` (transfer terms scale via sizes)."""
    return ServiceTimeModel(
        read_overhead=model.read_overhead / scale,
        write_overhead=model.write_overhead / scale,
        read_bandwidth=model.read_bandwidth,
        write_bandwidth=model.write_bandwidth,
    )


PROFILES: Dict[str, Profile] = {
    # CI sanity: tiny objects, 5% of the requests.
    "smoke": Profile(
        name="smoke",
        size_scale=400,
        request_fraction=0.05,
        chunk_size=2 * KiB,
        failure_chunk_size=4 * KiB,
        warmup_fraction=0.2,
        reclassify_interval=250,
    ),
    # Default: every ratio preserved, ~44 KB mean objects, quarter requests.
    "fast": Profile(
        name="fast",
        size_scale=100,
        request_fraction=0.25,
        chunk_size=2620,  # ~17 chunks per mean object
        failure_chunk_size=10 * KiB,
        reclassify_interval=500,
    ),
    # Paper-scale requests, 220 KB mean objects, 64 KiB/20 chunks.
    "full": Profile(
        name="full",
        size_scale=20,
        request_fraction=1.0,
        chunk_size=3277,
        failure_chunk_size=52 * KiB,
        reclassify_interval=1000,
    ),
}


def active_profile(name: Optional[str] = None) -> Profile:
    """Resolve a profile by name or the ``REPRO_PROFILE`` env variable."""
    chosen = name or os.environ.get("REPRO_PROFILE", "fast")
    try:
        return PROFILES[chosen]
    except KeyError:
        raise ValueError(
            f"unknown profile {chosen!r}; pick one of {sorted(PROFILES)}"
        ) from None


def make_policy(key: str) -> RedundancyPolicy:
    """Policy registry for the evaluation's scheme names."""
    if key == "full-replication":
        return full_replication()
    if key.endswith("-parity"):
        return uniform_parity(int(key.split("-")[0]))
    if key.startswith("Reo-") and key.endswith("%"):
        return reo_policy(float(key[4:-1]) / 100.0)
    raise ValueError(f"unknown policy key {key!r}")


def make_trace(
    locality: Locality,
    profile: Profile,
    write_ratio: float = 0.0,
    seed: int = 20190707,
) -> Trace:
    """The paper's workload for a locality profile, at this scale."""
    config = MediSynConfig(
        locality=locality,
        num_objects=4_000,
        mean_object_size=4.4 * 1000 * 1000,
        num_requests=profile.requests_for(locality),
        write_ratio=write_ratio,
        seed=seed,
        scale=profile.size_scale,
    )
    return generate_workload(config)


def build_experiment_cache(
    policy: Union[str, RedundancyPolicy],
    cache_bytes: int,
    profile: Profile,
    chunk_size: Optional[int] = None,
    **build_kwargs: Any,
) -> ReoCache:
    """A cache stack configured like the paper's cache server.

    ``policy`` is a scheme name for :func:`make_policy` or a policy object;
    ``build_kwargs`` go to :meth:`ReoCache.build` unchanged.
    """
    return ReoCache.build(
        policy=make_policy(policy) if isinstance(policy, str) else policy,
        num_devices=5,
        cache_bytes=cache_bytes,
        chunk_size=chunk_size or profile.chunk_size,
        device_model=profile.scaled_device_model(),
        backend_model=profile.scaled_backend_model(),
        reclassify_interval=profile.reclassify_interval,
        **build_kwargs,
    )


def replay(
    policy: Union[str, RedundancyPolicy],
    trace: Trace,
    profile: Profile,
    cache_percent: int,
    failures: Sequence[FailureEvent] = (),
    recovery_share: Optional[float] = None,
    concurrency: int = 1,
    **build: Any,
) -> Tuple[ReoCache, RunResult]:
    """Replay ``trace`` through a cache of ``cache_percent`` of its data set.

    A run with failures follows §VI-C: the cache is fully warmed first and
    every request is recorded. A run without failures instead excludes the
    profile's leading ``warmup_fraction`` of requests from the metrics.
    ``recovery_share`` defaults to the profile's; ``build`` goes to
    :func:`build_experiment_cache`.
    """
    cache = build_experiment_cache(
        policy, int(trace.total_bytes * cache_percent / 100), profile, **build
    )
    result = ExperimentRunner(
        cache,
        trace,
        failures=failures,
        recovery_share=profile.recovery_share if recovery_share is None else recovery_share,
        warmup_fraction=0.0 if failures else profile.warmup_fraction,
        prewarm=bool(failures),
        concurrency=concurrency,
    ).run()
    return cache, result


#: The paper's three metrics, in the order :func:`measures` returns them.
HIT, BANDWIDTH, LATENCY = "Hit Ratio (%)", "Bandwidth (MB/sec)", "Latency (ms)"


def measures(metrics: RunMetrics, profile: Profile) -> Tuple[float, float, float]:
    """Hit ratio (%), bandwidth (MB/sec) and latency (ms) of a span.

    Times were divided by the profile's scale factor; latency is multiplied
    back so it compares with the paper's milliseconds.
    """
    return (
        metrics.hit_ratio_percent,
        metrics.bandwidth_mb_per_sec,
        metrics.mean_latency_ms * profile.size_scale,
    )


@dataclass
class Figure:
    """A paper figure: a row per x value, a column per scheme, a block per metric.

    ``title`` heads every block, with ``{}`` standing for the metric;
    ``chart``, when set, titles an ASCII chart of the hit-ratio block.
    """

    title: str
    x_label: str
    x_values: Sequence[object]
    chart: Optional[str] = None
    #: metric -> scheme -> one value per x value.
    series: Dict[str, Dict[str, Sequence[float]]] = field(default_factory=dict)
    #: Named totals the figure does not plot (e.g. objects rebuilt).
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, scheme: str, points: Sequence[Sequence[float]]) -> None:
        """Add ``scheme``'s column: a :func:`measures` tuple (or its head) per x value."""
        for metric, values in zip((HIT, BANDWIDTH, LATENCY), zip(*points)):
            self.series.setdefault(metric, {})[scheme] = list(values)

    def format(self) -> str:
        blocks = [
            format_figure_series(self.title.format(metric), self.x_label, self.x_values, series)
            for metric, series in self.series.items()
        ]
        if self.chart:
            hit = self.series[HIT]
            blocks.append(ascii_chart(self.chart, self.x_values, hit))
        return "\n\n".join(blocks)


@dataclass
class Table:
    """A table: a row per variant, a column per metric."""

    title: str
    variant_label: str = "Variant"
    #: variant -> metric -> value; every row has the first row's metrics.
    rows: Dict[object, Dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        metrics = list(next(iter(self.rows.values()), {}))
        return format_table(
            self.title,
            [self.variant_label, *metrics],
            [
                [variant, *(f"{values[name]:.1f}" for name in metrics)]
                for variant, values in self.rows.items()
            ],
        )

"""Figures 5/6/7 — normal-run hit ratio, bandwidth, latency vs cache size.

The paper sweeps the cache size from 4% to 12% of the workload data set and
compares six schemes (0/1/2-parity uniform protection and Reo-10/20/40%)
under the weak-, medium-, and strong-locality workloads. Expected shapes:

- hit ratio rises with cache size and with locality strength;
- more uniform parity → less usable space → lower hit ratio;
- Reo-20% ≈ 1-parity (same overall space efficiency), Reo-40% ≥ 2-parity;
- bandwidth tracks hit ratio; latency tracks the miss ratio.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    NORMAL_RUN_POLICIES,
    Figure,
    Profile,
    active_profile,
    make_trace,
    measures,
    replay,
)
from repro.workload.medisyn import Locality

__all__ = ["run_normal_run_figure"]

#: The paper's x-axis: cache size as a percent of the data set.
CACHE_PERCENTS = (4, 6, 8, 10, 12)


def run_normal_run_figure(
    locality: Locality,
    profile: Optional[Profile] = None,
    cache_percents: Sequence[int] = CACHE_PERCENTS,
    policy_keys: Sequence[str] = NORMAL_RUN_POLICIES,
) -> Figure:
    """Regenerate one of Figs. 5/6/7 (all schemes, all cache sizes)."""
    profile = profile or active_profile()
    number = {"weak": 5, "medium": 6, "strong": 7}[locality.value]
    figure = Figure(
        title=f"Fig {number}: {{}} — {locality.value}-locality workload [{profile.name}]",
        x_label="Cache Size (%)",
        x_values=list(cache_percents),
        chart=f"Fig {number}a (chart): hit ratio (%) vs cache size",
    )
    trace = make_trace(locality, profile)
    for policy_key in policy_keys:
        runs = [replay(policy_key, trace, profile, percent)[1] for percent in cache_percents]
        figure.add(policy_key, [measures(run.metrics, profile) for run in runs])
    return figure

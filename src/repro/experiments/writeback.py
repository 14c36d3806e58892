"""Figure 9 — dirty-data protection: Reo vs uniform full replication.

Protocol (paper §VI-D): five write-intensive medium-locality workloads with
write ratios 10-50%, cache 10% of the data set, chunk size 64 KB. The
uniform approach must assume everything is dirty and replicates the whole
cache (20% space utilisation on five devices → ~27% hit ratio regardless of
the write ratio); Reo replicates only the actual dirty objects, reaching up
to ~3.1× the hit ratio and ~3.6× the bandwidth, degrading gracefully as the
write ratio grows — while keeping all dirty data as safe as full
replication (it survives any four of five device failures).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    CACHE_PERCENT,
    Figure,
    Profile,
    active_profile,
    make_trace,
    measures,
    replay,
)
from repro.workload.medisyn import Locality

__all__ = ["run_writeback_figure"]

#: The paper's write-ratio sweep.
WRITE_RATIOS = (10, 20, 30, 40, 50)

#: §VI-D compares full replication against Reo (reserve as in Reo-10%).
POLICIES = ("full-replication", "Reo-10%")


def run_writeback_figure(
    profile: Optional[Profile] = None,
    write_ratios: Sequence[int] = WRITE_RATIOS,
    policy_keys: Sequence[str] = POLICIES,
) -> Figure:
    """Regenerate Fig. 9 (read hit ratio over the write-intensive sweep)."""
    profile = profile or active_profile()
    figure = Figure(
        title=f"Fig 9: {{}} vs write ratio [{profile.name}]",
        x_label="Write Ratio (%)",
        x_values=list(write_ratios),
    )
    traces = [
        make_trace(Locality.MEDIUM, profile, write_ratio=ratio / 100.0)
        for ratio in write_ratios
    ]
    for policy_key in policy_keys:
        runs = [replay(policy_key, trace, profile, CACHE_PERCENT)[1] for trace in traces]
        figure.add(policy_key, [measures(run.metrics, profile) for run in runs])
    return figure

"""§VI-B space-efficiency table.

The paper reports: "Reo-10% achieves 90.5%, 91.0%, and 90% average space
efficiency for weak, medium, and strong workload, respectively. Reo-20% and
Reo-40% also show space efficiency close to the specified parity
percentage." Uniform baselines are analytic on a five-device array: 100%
(0-parity), 80% (1-parity), 60% (2-parity), 20% (full replication).

Space efficiency is sampled periodically over the measured run and averaged,
matching the paper's "average space efficiency".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import (
    CACHE_PERCENT,
    Profile,
    Table,
    active_profile,
    build_experiment_cache,
    make_trace,
)
from repro.workload.medisyn import Locality
from repro.workload.trace import Trace

__all__ = ["run_space_efficiency_table"]

#: §VI-B quotes Reo-10%'s average space efficiency per workload.
PAPER_REO10 = {"weak": 90.5, "medium": 91.0, "strong": 90.0}

REO_POLICIES = ("Reo-10%", "Reo-20%", "Reo-40%")

#: Space-efficiency samples taken over one replay.
SAMPLES = 40


def _average_space_efficiency(policy_key: str, trace: Trace, profile: Profile) -> float:
    """Replay the trace, sampling space efficiency at regular intervals."""
    cache_bytes = int(trace.total_bytes * CACHE_PERCENT / 100)
    cache = build_experiment_cache(policy_key, cache_bytes, profile)
    cache.register_objects(trace.catalog)
    interval = max(1, len(trace) // SAMPLES)
    observations: List[float] = []
    for index, record in enumerate(trace):
        result = cache.write(record.name) if record.is_write else cache.read(record.name)
        cache.clock.advance(result.latency)
        if index % interval == 0 and index >= len(trace) * profile.warmup_fraction:
            observations.append(cache.space_efficiency)
    if not observations:
        observations.append(cache.space_efficiency)
    return 100.0 * sum(observations) / len(observations)


def run_space_efficiency_table(
    profile: Optional[Profile] = None,
    policy_keys: Sequence[str] = REO_POLICIES,
) -> Table:
    """Regenerate the §VI-B numbers for the Reo configurations.

    The last row quotes the paper's Reo-10% figures.
    """
    profile = profile or active_profile()
    table = Table(
        title=f"Space efficiency (%), cache={CACHE_PERCENT}% [{profile.name}]",
        variant_label="Scheme",
    )
    traces = {locality.value: make_trace(locality, profile) for locality in Locality}
    for policy_key in policy_keys:
        table.rows[policy_key] = {
            name: _average_space_efficiency(policy_key, trace, profile)
            for name, trace in traces.items()
        }
    table.rows["paper Reo-10%"] = dict(PAPER_REO10)
    return table

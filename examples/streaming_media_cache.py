#!/usr/bin/env python3
"""Streaming-media cache: the paper's motivating workload, end to end.

The paper evaluates Reo with MediSyn-style streaming-media traffic (Zipfian
popularity, heavy-tailed object sizes). This example generates a scaled
medium-locality workload, replays it through Reo-20% and the uniform
1-parity baseline, and prints the head-to-head — the same comparison as the
middle columns of Fig. 6, at a size that runs in seconds.

Run:  python examples/streaming_media_cache.py
"""

from repro.experiments.common import PROFILES, make_trace, measures, replay
from repro.sim.report import format_table
from repro.workload.medisyn import Locality

CACHE_PERCENT = 10


def main() -> None:
    profile = PROFILES["smoke"]
    trace = make_trace(Locality.MEDIUM, profile)
    print(
        f"workload: {trace.name} — {len(trace.catalog)} objects, "
        f"{trace.total_bytes / 1e6:.0f} MB data set, {len(trace)} requests"
    )

    rows = []
    for policy_key in ("1-parity", "Reo-20%"):
        cache, result = replay(policy_key, trace, profile, CACHE_PERCENT)
        rows.append(
            [
                policy_key,
                *(f"{value:.1f}" for value in measures(result.metrics, profile)),
                f"{100 * cache.space_efficiency:.1f}",
                str(cache.stats.reclassifications),
            ]
        )
    print()
    print(
        format_table(
            f"Medium-locality streaming workload, cache={CACHE_PERCENT}% of data set",
            ["Scheme", "Hit %", "MB/sec", "Latency (ms)", "Space eff. %", "Re-encodes"],
            rows,
        )
    )
    print(
        "\nReo-20% matches 1-parity's space efficiency while giving dirty and"
        "\nhot data strictly stronger protection (see examples/"
        "failure_drill.py)."
    )


if __name__ == "__main__":
    main()

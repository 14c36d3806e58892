#!/usr/bin/env python3
"""Write-back cache in front of a database: protecting dirty data cheaply.

A write-back flash cache holds the *only* valid copy of recently updated
records — losing them corrupts the database silently. The blunt fix is to
replicate the whole cache (what a block-level cache must do, since it cannot
tell dirty from clean); Reo replicates only what is actually dirty.

This example simulates an update-heavy key-value workload over the two
approaches and then kills four of five devices to demonstrate the claim
that matters: *no acknowledged update is ever lost* under either scheme,
but Reo serves far more reads from cache while doing it (the paper's
Fig. 9, §VI-D).

Run:  python examples/writeback_database_cache.py
"""

from repro.experiments.common import PROFILES, make_trace, replay
from repro.sim.report import format_table
from repro.workload.medisyn import Locality

WRITE_RATIO = 0.3


def drill(policy_key: str, profile):
    trace = make_trace(Locality.MEDIUM, profile, write_ratio=WRITE_RATIO)
    cache, result = replay(policy_key, trace, profile, 10)

    # Catastrophe: four of five devices die at once.
    for device_id in range(4):
        cache.fail_device(device_id)
    dirty_before = cache.manager.dirty_count
    flushed = cache.flush()  # drain every dirty object to the database
    return cache, result, dirty_before, flushed


def main() -> None:
    profile = PROFILES["smoke"]
    rows = []
    for policy_key in ("full-replication", "Reo-10%"):
        cache, result, dirty, flushed = drill(policy_key, profile)
        rows.append(
            [
                policy_key,
                f"{result.metrics.hit_ratio_percent:.1f}",
                f"{result.metrics.bandwidth_mb_per_sec:.1f}",
                f"{100 * cache.space_efficiency:.1f}",
                f"{flushed}/{dirty}",
            ]
        )
    print(
        format_table(
            f"Update-heavy workload ({int(WRITE_RATIO * 100)}% writes), "
            "then 4-of-5 devices fail",
            ["Scheme", "Hit %", "MB/sec", "Space eff. %", "Dirty flushed"],
            rows,
        )
    )
    print(
        "\nBoth schemes flush every dirty object from the lone survivor — "
        "zero data loss —\nbut Reo got there while serving a much larger "
        "share of reads from flash."
    )


if __name__ == "__main__":
    main()

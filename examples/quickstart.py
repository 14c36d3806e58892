#!/usr/bin/env python3
"""Quickstart: build a Reo cache, serve traffic, survive a device failure.

Walks the library's public API end to end:

1. assemble a five-SSD Reo cache with a 20% redundancy reserve;
2. register a backend data set and serve reads/writes through the cache;
3. shoot down a device and watch differentiated redundancy keep the
   important data online;
4. insert a spare and run prioritized recovery.

Run:  python examples/quickstart.py
"""

from repro.core.policy import reo_policy
from repro.core.reo import ReoCache
from repro.units import KiB, MiB, format_duration


def main() -> None:
    # 1. A cache over five simulated SSDs (64 MiB total, 64 KiB chunks),
    #    with Reo's differentiated redundancy and a 20% parity reserve.
    cache = ReoCache.build(
        policy=reo_policy(0.20),
        num_devices=5,
        cache_bytes=64 * MiB,
        chunk_size=64 * KiB,
        reclassify_interval=200,
    )

    # 2. Declare the backend data set: 200 objects of 256 KiB.
    catalog = {f"video-{index:03d}": 256 * KiB for index in range(200)}
    cache.register_objects(catalog)

    print("== Serving traffic ==")
    cold = cache.read("video-000")
    warm = cache.read("video-000")
    print(f"cold read : miss, {format_duration(cold.latency)} (fetched from backend)")
    print(f"warm read : hit,  {format_duration(warm.latency)} (served from flash)")

    # A write-back write: the update lands in cache as Class-1 (dirty) data,
    # fully replicated across the five devices.
    update = cache.write("video-001")
    print(f"write     : {format_duration(update.latency)} (dirty, replicated)")

    # Touch a few objects repeatedly so the H = Freq/Size classifier can
    # promote them to the hot class (2-parity protection).
    for _ in range(25):
        for name in ("video-000", "video-002", "video-003"):
            result = cache.read(name)
            cache.clock.advance(result.latency)
    promoted = cache.manager.reclassify()
    print(f"reclassify: {promoted} objects re-encoded under their new class")

    # 3. Failure: without Reo, a failed device would take the cache down.
    print("\n== Device failure ==")
    cache.fail_device(0)
    hot = cache.read("video-000")     # hot: decoded from surviving parity
    dirty = cache.read("video-001")   # dirty: replica on a surviving device
    print(f"hot object  after failure: hit={hot.hit} (degraded={hot.degraded})")
    print(f"dirty object after failure: hit={dirty.hit}")
    print(f"hit ratio so far: {cache.stats.hit_ratio_percent:.1f}%")

    # 4. Spare insertion + prioritized recovery (metadata -> dirty -> hot ->
    #    cold), then the array is whole again.
    print("\n== Recovery ==")
    cache.replace_device(0)
    plan = cache.recovery.start()
    rebuilt = cache.recovery.run_to_completion()
    print(f"recovery plan: {plan.pending} objects to rebuild, {len(plan.lost)} lost")
    print(f"rebuilt {rebuilt} objects in {format_duration(cache.recovery.seconds_spent)} simulated")
    print(f"space efficiency: {cache.space_efficiency:.1%}")
    print(f"final state: {cache!r}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Silent corruption and the scrubber: catching bit-rot before it bites.

Flash wear does not only kill whole devices — the paper's introduction
calls out "partial data loss" from worn cells. This example injects silent
bit-flips into stored chunks, shows that integrity-checked reads transparently
decode around them, and runs the scrubber to repair the damage using the
same Reed-Solomon parity that handles device failures.

Run:  python examples/silent_corruption_scrub.py
"""

from repro.core.policy import reo_policy
from repro.core.reo import ReoCache
from repro.units import KiB, MiB


def main() -> None:
    cache = ReoCache.build(
        policy=reo_policy(0.40),
        cache_bytes=32 * MiB,
        chunk_size=16 * KiB,
        reclassify_interval=50,
    )
    catalog = {f"record-{index:03d}": 128 * KiB for index in range(40)}
    cache.register_objects(catalog)

    # Warm the cache and promote everything the 40% reserve can protect.
    for _ in range(3):
        for name in catalog:
            result = cache.read(name)
            cache.clock.advance(result.latency)
    cache.manager.reclassify()
    protected = sum(
        1 for name in catalog
        if name in cache.manager and cache.manager.get_cached(name).class_id == 2
    )
    print(f"cached {len(cache.manager)} objects, {protected} hot (2-parity protected)")

    # Inject bit-rot: corrupt one data chunk in each of ten objects.
    victims = list(catalog)[:10]
    for name in victims:
        cached = cache.manager.get_cached(name)
        extent = cache.array.get_extent(cached.object_id)
        chunk = extent.stripes[0].data_chunks()[0]
        cache.array.devices[chunk.device_id].corrupt_chunk(chunk.address)
    print(f"injected silent corruption into {len(victims)} objects")

    # Reads still succeed — the integrity check catches the rot, parity
    # decodes around it.
    degraded = sum(1 for name in victims if cache.read(name).degraded)
    print(f"reads survived: {degraded} of {len(victims)} served via degraded decode")

    # Scrub: verify every chunk, rewrite the corrupted ones from parity.
    report = cache.scrub()
    print(
        f"scrub checked {report.chunks_checked} chunks, repaired "
        f"{report.chunks_repaired}, unrecoverable objects: "
        f"{len(report.unrecoverable_objects)}"
    )

    # After the scrub, reads are clean again.
    clean = sum(1 for name in victims if not cache.read(name).degraded)
    print(f"post-scrub clean reads: {clean} of {len(victims)}")


if __name__ == "__main__":
    main()

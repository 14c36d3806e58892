"""Endurance experiments: flash wear mechanics behind the paper's motivation.

The paper's reliability story starts from flash physics — cells endure only
1,000-5,000 P/E cycles (§I) — and §IV-C.3 distributes parity chunks
round-robin "for an even distribution". These two studies make both points
measurable on the simulated substrate:

- **Write-amplification sweep** — one FTL device under random overwrites at
  increasing space utilization. Garbage collection must relocate more valid
  pages as free space shrinks, so WA grows super-linearly: the canonical
  flash-endurance curve.
- **Parity-placement wear ablation** — an array under partial-update
  traffic with rotated parity (the paper's layout) vs parity pinned to
  fixed devices (RAID-4 style). Every update rewrites parity, so pinned
  parity devices wear far faster — the imbalance rotation exists to avoid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.flash.array import FlashArray
from repro.flash.ftl import FtlConfig, PageMappedFtl
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme
from repro.sim.report import format_table
from repro.units import KiB

__all__ = [
    "ParityWearResult",
    "WriteAmplificationPoint",
    "run_parity_placement_wear",
    "run_write_amplification_sweep",
]


#: The write-amplification sweep: the utilizations it visits, the random
#: overwrites it times at each, and their seed.
WA_UTILIZATIONS = (0.5, 0.7, 0.85, 0.95)
WA_OVERWRITES = 20_000
WA_SEED = 11

#: The parity-placement study: objects written, each one's size, the
#: random partial updates applied to them, each one's size, and the seed.
WEAR_OBJECTS = 40
WEAR_OBJECT_SIZE = 8 * KiB
WEAR_UPDATES = 1_500
WEAR_UPDATE_SIZE = 256
WEAR_SEED = 13


@dataclass(frozen=True)
class WriteAmplificationPoint:
    """One utilization sample of the WA sweep."""

    utilization: float
    write_amplification: float
    gc_page_moves: int


def run_write_amplification_sweep() -> List[WriteAmplificationPoint]:
    """WA vs utilization for one FTL device under random overwrites."""
    points: List[WriteAmplificationPoint] = []
    for utilization in WA_UTILIZATIONS:
        ftl = PageMappedFtl(
            FtlConfig(
                page_size=4 * KiB,
                pages_per_block=32,
                num_blocks=128,
                gc_low_watermark=2,
            )
        )
        live_pages = int(ftl.config.capacity_pages * utilization)
        for index in range(live_pages):
            ftl.write(("data", index))
        # Random-overwrite steady state: the regime where GC hurts.
        rng = random.Random(WA_SEED)
        baseline = ftl.stats.nand_pages_written
        host = 0
        for _ in range(WA_OVERWRITES):
            ftl.write(("data", rng.randrange(live_pages)))
            host += 1
        nand = ftl.stats.nand_pages_written - baseline
        points.append(
            WriteAmplificationPoint(
                utilization=utilization,
                write_amplification=nand / host if host else 1.0,
                gc_page_moves=ftl.stats.gc_page_moves,
            )
        )
    return points


def format_write_amplification(points: List[WriteAmplificationPoint]) -> str:
    """Render the WA sweep as a table."""
    rows = [
        [f"{100 * point.utilization:.0f}%", f"{point.write_amplification:.2f}",
         point.gc_page_moves]
        for point in points
    ]
    return format_table(
        "Write amplification vs space utilization (random overwrites)",
        ["Utilization", "WA", "GC page moves"],
        rows,
    )


@dataclass
class ParityWearResult:
    """Per-device NAND write counts under each parity placement."""

    nand_writes: Dict[str, List[int]] = field(default_factory=dict)

    def imbalance(self, layout: str) -> float:
        """Max/mean per-device NAND writes (1.0 = perfectly even)."""
        counts = self.nand_writes[layout]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    def format(self) -> str:
        rows = []
        for layout, counts in self.nand_writes.items():
            rows.append(
                [
                    layout,
                    *(str(count) for count in counts),
                    f"{self.imbalance(layout):.2f}",
                ]
            )
        headers = [
            "Parity layout",
            *(f"dev{index}" for index in range(5)),
            "max/mean",
        ]
        return format_table(
            "Per-device NAND page writes under partial-update traffic",
            headers,
            rows,
        )


def run_parity_placement_wear() -> ParityWearResult:
    """Rotated vs pinned parity under random partial updates (§IV-C.3)."""
    result = ParityWearResult()
    for layout, rotate in (("rotated (paper)", True), ("fixed (RAID-4 style)", False)):
        array = FlashArray(
            num_devices=5,
            device_capacity=64 * 1024 * 1024,
            chunk_size=1 * KiB,
            model=ZERO_COST,
        )
        for device in array.devices:
            device.ftl = PageMappedFtl(
                FtlConfig(page_size=1 * KiB, pages_per_block=32, num_blocks=512)
            )
        scheme = ParityScheme(1, rotate=rotate)
        rng = np.random.default_rng(WEAR_SEED)
        for index in range(WEAR_OBJECTS):
            payload = rng.integers(0, 256, WEAR_OBJECT_SIZE, dtype=np.uint8).tobytes()
            array.write_object(f"o{index}", payload, scheme)
        update_rng = random.Random(WEAR_SEED)
        for _ in range(WEAR_UPDATES):
            name = f"o{update_rng.randrange(WEAR_OBJECTS)}"
            offset = update_rng.randrange(WEAR_OBJECT_SIZE - WEAR_UPDATE_SIZE)
            data = bytes(update_rng.getrandbits(8) for _ in range(64)) * (
                WEAR_UPDATE_SIZE // 64
            )
            array.update_range(name, offset, data)
        result.nand_writes[layout] = [
            device.ftl.stats.nand_pages_written for device in array.devices
        ]
    return result

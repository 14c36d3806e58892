"""A page-mapped flash translation layer (FTL).

The paper's whole motivation is flash physics: cells wear out after
1,000-5,000 program/erase cycles (§I), and the device-level behaviours that
follow — erase-before-write, garbage collection, write amplification,
wear imbalance — are what make flash reliability a live concern. This module
simulates those mechanics at page/block granularity:

- logical pages map to physical ``(block, page)`` slots;
- overwrites invalidate the old slot and program a new one (no in-place
  update);
- when free blocks run low, greedy garbage collection picks the block with
  the fewest valid pages, relocates them, and erases it;
- per-block erase counters expose wear, its imbalance, and the write
  amplification factor (NAND writes / host writes).

The FTL is attached to a :class:`~repro.flash.device.FlashDevice` as an
optional accounting layer: chunk writes and deletes drive page traffic, and
the endurance benchmarks read the resulting statistics. It deliberately does
not add latency to the calibrated experiment profiles (GC stalls can be
modelled by billing :attr:`FtlStats.gc_page_moves`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import FlashError
from repro.units import KiB

__all__ = ["FtlConfig", "FtlStats", "PageMappedFtl"]


@dataclass(frozen=True)
class FtlConfig:
    """Geometry and policy of one device's FTL."""

    page_size: int = 4 * KiB
    pages_per_block: int = 64
    num_blocks: int = 256
    #: GC starts when free blocks drop to this many.
    gc_low_watermark: int = 2
    #: P/E cycles a block endures before it is retired (paper: 1,000-5,000).
    endurance_cycles: int = 3_000

    def __post_init__(self) -> None:
        if self.page_size < 1 or self.pages_per_block < 1 or self.num_blocks < 2:
            raise FlashError("FTL geometry must have pages and >= 2 blocks")
        if not 1 <= self.gc_low_watermark < self.num_blocks:
            raise FlashError("GC watermark must be in [1, num_blocks)")

    @property
    def capacity_pages(self) -> int:
        return self.pages_per_block * self.num_blocks


@dataclass
class FtlStats:
    """Cumulative FTL counters."""

    host_pages_written: int = 0
    nand_pages_written: int = 0
    gc_runs: int = 0
    gc_page_moves: int = 0
    blocks_erased: int = 0

    @property
    def write_amplification(self) -> float:
        """NAND page programs per host page write (>= 1)."""
        if self.host_pages_written == 0:
            return 1.0
        return self.nand_pages_written / self.host_pages_written


class PageMappedFtl:
    """Greedy-GC page-mapped FTL over abstract logical page numbers."""

    def __init__(self, config: Optional[FtlConfig] = None) -> None:
        self.config = config or FtlConfig()
        #: logical page -> (block, page)
        self._map: Dict[Hashable, Tuple[int, int]] = {}
        #: per-block: list of lpn-or-None per page slot (None = invalid/free)
        self._blocks: List[List[Optional[Hashable]]] = [
            [] for _ in range(self.config.num_blocks)
        ]
        self._valid_counts = [0] * self.config.num_blocks
        self._erase_counts = [0] * self.config.num_blocks
        self._free_blocks: Set[int] = set(range(1, self.config.num_blocks))
        self._retired: Set[int] = set()
        self._active_block = 0
        self._in_gc = False
        self.stats = FtlStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mapped_pages(self) -> int:
        return len(self._map)

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    @property
    def max_erase_count(self) -> int:
        return max(self._erase_counts)

    @property
    def wear_spread(self) -> int:
        """Difference between the most- and least-worn live blocks."""
        live = [
            count
            for block, count in enumerate(self._erase_counts)
            if block not in self._retired
        ]
        return max(live) - min(live) if live else 0

    @property
    def retired_blocks(self) -> int:
        return len(self._retired)

    @property
    def is_worn_out(self) -> bool:
        """True when so many blocks retired that GC can no longer run."""
        usable = self.config.num_blocks - len(self._retired)
        return usable <= self.config.gc_low_watermark + 1

    def pages_for(self, num_bytes: int) -> int:
        return max(1, math.ceil(num_bytes / self.config.page_size))

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------
    def write(self, lpn: Hashable) -> None:
        """Program one logical page (overwrites invalidate the old slot)."""
        self.stats.host_pages_written += 1
        self._invalidate(lpn)
        self._program(lpn, host=True)

    def write_extent(self, key: Hashable, num_bytes: int) -> int:
        """Write an extent's pages as ``(key, index)`` lpns; returns pages."""
        pages = self.pages_for(num_bytes)
        for index in range(pages):
            self.write((key, index))
        return pages

    def trim(self, lpn: Hashable) -> None:
        """Drop a logical page (TRIM)."""
        self._invalidate(lpn)
        self._map.pop(lpn, None)

    def trim_extent(self, key: Hashable, num_bytes: int) -> None:
        for index in range(self.pages_for(num_bytes)):
            self.trim((key, index))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _invalidate(self, lpn: Hashable) -> None:
        location = self._map.get(lpn)
        if location is None:
            return
        block, page = location
        self._blocks[block][page] = None
        self._valid_counts[block] -= 1

    def _program(self, lpn: Hashable, host: bool) -> None:
        if len(self._blocks[self._active_block]) >= self.config.pages_per_block:
            self._advance_active_block()
        block = self._active_block
        page = len(self._blocks[block])
        self._blocks[block].append(lpn)
        self._valid_counts[block] += 1
        self._map[lpn] = (block, page)
        self.stats.nand_pages_written += 1

    def _advance_active_block(self) -> None:
        if self._in_gc:
            # GC relocations must not recurse into GC; the watermark
            # guarantees a spare block for them.
            if not self._free_blocks:
                raise FlashError("FTL watermark violated during GC relocation")
            self._active_block = self._free_blocks.pop()
            return
        if not self._free_blocks and not self._collect_garbage():
            raise FlashError("FTL out of free blocks (device worn out or overfull)")
        self._active_block = self._free_blocks.pop()
        while len(self._free_blocks) < self.config.gc_low_watermark:
            if not self._collect_garbage():
                break

    def _collect_garbage(self) -> bool:
        """Greedy GC: erase the non-free block with the fewest valid pages.

        Returns False when no block can be reclaimed (every candidate is
        full of valid data — the device is logically full).
        """
        candidates = [
            block
            for block in range(self.config.num_blocks)
            if block not in self._free_blocks
            and block not in self._retired
            and block != self._active_block
            and len(self._blocks[block]) >= self.config.pages_per_block
        ]
        if not candidates:
            return False
        victim = min(candidates, key=lambda block: self._valid_counts[block])
        if self._valid_counts[victim] >= self.config.pages_per_block:
            return False  # nothing reclaimable anywhere
        survivors = [lpn for lpn in self._blocks[victim] if lpn is not None]
        self._blocks[victim] = []
        self._valid_counts[victim] = 0
        self._erase_counts[victim] += 1
        self.stats.gc_runs += 1
        self.stats.blocks_erased += 1
        if self._erase_counts[victim] >= self.config.endurance_cycles:
            self._retired.add(victim)
        else:
            self._free_blocks.add(victim)
        self._in_gc = True
        try:
            for lpn in survivors:
                # Relocations program pages without host writes: amplification.
                self.stats.gc_page_moves += 1
                self._program(lpn, host=False)
        finally:
            self._in_gc = False
        return True

    def __repr__(self) -> str:
        return (
            f"PageMappedFtl(mapped={self.mapped_pages}, free_blocks="
            f"{self.free_block_count}, WA={self.stats.write_amplification:.2f})"
        )

"""Tests for the page-mapped FTL: mapping, GC, wear, write amplification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlashError
from repro.flash.ftl import FtlConfig, FtlStats, PageMappedFtl


def small_ftl(num_blocks=8, pages_per_block=4, watermark=1, endurance=3_000):
    return PageMappedFtl(
        FtlConfig(
            page_size=64,
            pages_per_block=pages_per_block,
            num_blocks=num_blocks,
            gc_low_watermark=watermark,
            endurance_cycles=endurance,
        )
    )


class TestConfig:
    def test_invalid_geometry(self):
        with pytest.raises(FlashError):
            FtlConfig(num_blocks=1)
        with pytest.raises(FlashError):
            FtlConfig(pages_per_block=0)
        with pytest.raises(FlashError):
            FtlConfig(num_blocks=4, gc_low_watermark=4)

    def test_capacity_pages(self):
        assert FtlConfig(pages_per_block=64, num_blocks=256).capacity_pages == 64 * 256


class TestMapping:
    def test_write_maps_page(self):
        ftl = small_ftl()
        ftl.write("a")
        assert ftl.mapped_pages == 1
        assert ftl.stats.host_pages_written == 1
        assert ftl.stats.nand_pages_written == 1

    def test_overwrite_invalidates_not_grows(self):
        ftl = small_ftl()
        ftl.write("a")
        ftl.write("a")
        assert ftl.mapped_pages == 1
        assert ftl.stats.nand_pages_written == 2

    def test_trim_unmaps(self):
        ftl = small_ftl()
        ftl.write("a")
        ftl.trim("a")
        assert ftl.mapped_pages == 0
        ftl.trim("a")  # idempotent

    def test_extent_helpers(self):
        ftl = small_ftl()
        pages = ftl.write_extent("chunk", 200)  # 200 bytes / 64 = 4 pages
        assert pages == 4
        assert ftl.mapped_pages == 4
        ftl.trim_extent("chunk", 200)
        assert ftl.mapped_pages == 0

    def test_pages_for(self):
        ftl = small_ftl()
        assert ftl.pages_for(1) == 1
        assert ftl.pages_for(64) == 1
        assert ftl.pages_for(65) == 2


class TestGarbageCollection:
    def test_gc_reclaims_invalidated_pages(self):
        ftl = small_ftl(num_blocks=4, pages_per_block=4, watermark=1)
        # Hammer one logical page: every write invalidates the previous one.
        for _ in range(40):
            ftl.write("hot")
        assert ftl.stats.gc_runs > 0
        assert ftl.mapped_pages == 1

    def test_write_amplification_grows_with_fullness(self):
        # A mostly-empty FTL has WA ~1; a nearly-full one relocates a lot.
        idle = small_ftl(num_blocks=16, pages_per_block=8)
        for index in range(16):
            idle.write(("cold", index))
        assert idle.stats.write_amplification == pytest.approx(1.0)

        # High utilization + random overwrites force GC to relocate valid
        # pages: the classic write-amplification regime.
        import random

        busy = small_ftl(num_blocks=16, pages_per_block=8, watermark=2)
        live = 96  # 75% of 128 pages
        for index in range(live):
            busy.write(("data", index))
        rng = random.Random(7)
        for _ in range(1_000):
            busy.write(("data", rng.randrange(live)))
        assert busy.stats.gc_page_moves > 0
        assert busy.stats.write_amplification > 1.2

    def test_overfull_raises(self):
        ftl = small_ftl(num_blocks=4, pages_per_block=4, watermark=1)
        with pytest.raises(FlashError):
            for index in range(20):
                ftl.write(("unique", index))

    def test_gc_preserves_valid_data_mapping(self):
        ftl = small_ftl(num_blocks=6, pages_per_block=4, watermark=1)
        for index in range(10):
            ftl.write(("keep", index))
        for _ in range(60):
            ftl.write("churn")
        # All kept pages still mapped after many GC rounds.
        assert ftl.mapped_pages == 11


class TestWear:
    def test_erase_counts_accumulate(self):
        ftl = small_ftl(num_blocks=4, pages_per_block=4, watermark=1)
        for _ in range(100):
            ftl.write("hot")
        assert ftl.max_erase_count >= 1
        assert ftl.stats.blocks_erased >= 1

    def test_endurance_retires_blocks(self):
        ftl = small_ftl(num_blocks=4, pages_per_block=2, watermark=1, endurance=3)
        with pytest.raises(FlashError):
            for _ in range(10_000):
                ftl.write("hot")
        assert ftl.retired_blocks > 0
        assert ftl.is_worn_out

    def test_wear_spread(self):
        ftl = small_ftl()
        assert ftl.wear_spread == 0


class TestDeviceIntegration:
    def test_device_drives_ftl(self):
        from repro.flash.device import FlashDevice
        from repro.flash.latency import ZERO_COST

        device = FlashDevice(
            device_id=0,
            capacity_bytes=10**6,
            model=ZERO_COST,
            ftl=small_ftl(num_blocks=64, pages_per_block=8),
        )
        device.write_chunk((0, 0), b"x" * 200)
        assert device.ftl.mapped_pages == 4
        device.write_chunk((0, 0), b"y" * 100)  # overwrite trims then writes
        assert device.ftl.mapped_pages == 2
        device.discard_chunks([(0, 0)])
        assert device.ftl.mapped_pages == 0

    @pytest.mark.parametrize("rewrite", [None, b"y" * 100], ids=["discard", "overwrite"])
    def test_torn_chunk_frees_every_programmed_page(self, rewrite):
        from repro.flash.device import FlashDevice
        from repro.flash.latency import ZERO_COST

        device = FlashDevice(
            device_id=0,
            capacity_bytes=10**6,
            model=ZERO_COST,
            ftl=small_ftl(num_blocks=64, pages_per_block=8),
        )
        device.write_chunk((0, 0), b"x" * 256)  # 4 pages of 64 bytes
        assert device.tear_stored((0, 0), keep_fraction=0.0)
        if rewrite is None:
            device.discard_chunks([(0, 0)])
            assert device.ftl.mapped_pages == 0
        else:
            device.write_chunk((0, 0), rewrite)
            assert device.ftl.mapped_pages == 2

    def test_replace_resets_ftl(self):
        from repro.flash.device import FlashDevice
        from repro.flash.latency import ZERO_COST

        device = FlashDevice(
            device_id=0, capacity_bytes=10**6, model=ZERO_COST, ftl=small_ftl()
        )
        device.write_chunk((0, 0), b"x" * 64)
        device.fail()
        device.replace()
        assert device.ftl.mapped_pages == 0
        assert device.ftl.stats.host_pages_written == 0


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["w", "t"]), st.integers(min_value=0, max_value=11)),
            max_size=120,
        )
    )
    def test_mapped_pages_match_reference_model(self, ops):
        ftl = small_ftl(num_blocks=8, pages_per_block=4, watermark=2)
        live = set()
        try:
            for op, lpn in ops:
                if op == "w":
                    ftl.write(lpn)
                    live.add(lpn)
                else:
                    ftl.trim(lpn)
                    live.discard(lpn)
        except FlashError:
            return  # logically overfull; fine
        assert ftl.mapped_pages == len(live)
        # NAND writes always >= host writes.
        assert ftl.stats.nand_pages_written >= ftl.stats.host_pages_written

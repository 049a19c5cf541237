"""Tests for the software sweeping revoker (section 3.3.2)."""

import pytest

from repro.revoker.software import SoftwareRevoker
from .conftest import HEAP_BASE, SRAM_BASE, heap_cap


@pytest.fixture
def revoker(bus, rmap, core):
    return SoftwareRevoker(bus, rmap, core_model=core)


class TestSweepEffects:
    def test_stale_capabilities_invalidated(self, bus, rmap, roots, revoker):
        stale = heap_cap(roots, 0, 64)
        bus.write_capability(SRAM_BASE + 0x100, stale)
        bus.write_capability(SRAM_BASE + 0x200, stale.inc_address(8))
        rmap.paint(HEAP_BASE, 64)
        revoker.sweep(SRAM_BASE, SRAM_BASE + 0x1000)
        assert not bus.read_capability(SRAM_BASE + 0x100).tag
        assert not bus.read_capability(SRAM_BASE + 0x200).tag
        assert revoker.stats.tags_invalidated == 2

    def test_live_capabilities_survive(self, bus, rmap, roots, revoker):
        live = heap_cap(roots, 0x100, 64)
        bus.write_capability(SRAM_BASE + 0x300, live)
        rmap.paint(HEAP_BASE, 64)  # a different chunk is freed
        revoker.sweep(SRAM_BASE, SRAM_BASE + 0x1000)
        assert bus.read_capability(SRAM_BASE + 0x300).tag

    def test_plain_data_untouched(self, bus, rmap, revoker):
        bus.write_word(SRAM_BASE + 0x40, 0xCAFEBABE, 4)
        rmap.paint(HEAP_BASE, 64)
        revoker.sweep(SRAM_BASE, SRAM_BASE + 0x1000)
        assert bus.read_word(SRAM_BASE + 0x40, 4) == 0xCAFEBABE

    def test_sweep_outside_region_leaves_caps(self, bus, rmap, roots, revoker):
        stale = heap_cap(roots)
        bus.write_capability(SRAM_BASE + 0x2000, stale)
        rmap.paint(HEAP_BASE, 64)
        revoker.sweep(SRAM_BASE, SRAM_BASE + 0x1000)  # does not cover 0x2000
        assert bus.read_capability(SRAM_BASE + 0x2000).tag


class TestEpochProtocol:
    def test_sweep_advances_epoch_twice(self, revoker):
        before = revoker.epoch.value
        revoker.sweep(SRAM_BASE, SRAM_BASE + 0x100)
        assert revoker.epoch.value == before + 2


class TestCosts:
    def test_cycles_proportional_to_region_not_tags(self, bus, rmap, core, revoker):
        """The sweep loop visits every word: cost is per-region."""
        _, small = revoker.sweep(SRAM_BASE, SRAM_BASE + 0x800)
        _, large = revoker.sweep(SRAM_BASE, SRAM_BASE + 0x1000)
        assert large == pytest.approx(2 * small, rel=0.05)
        assert core.cycles == small + large

    def test_batching_matches_unbatched_total(self, bus, rmap, core):
        fine = SoftwareRevoker(bus, rmap, core_model=core, batch_granules=8)
        coarse = SoftwareRevoker(
            bus, rmap, epoch=fine.epoch, core_model=core, batch_granules=4096
        )
        _, cycles_fine = fine.sweep(SRAM_BASE, SRAM_BASE + 0x1000)
        _, cycles_coarse = coarse.sweep(SRAM_BASE, SRAM_BASE + 0x1000)
        assert cycles_fine == pytest.approx(cycles_coarse, rel=0.02)

    def test_bad_batch_size_rejected(self, bus, rmap):
        with pytest.raises(ValueError):
            SoftwareRevoker(bus, rmap, batch_granules=0)

    def test_misaligned_region_rejected(self, revoker):
        with pytest.raises(ValueError):
            revoker.sweep(SRAM_BASE + 4, SRAM_BASE + 0x100)
        with pytest.raises(ValueError):
            revoker.sweep(SRAM_BASE + 0x100, SRAM_BASE)

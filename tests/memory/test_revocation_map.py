"""Tests for the revocation bitmap (paper section 3.3.1)."""

import pytest

from repro.memory.revocation_map import GRANULE_BYTES, SRAM_OVERHEAD, RevocationMap

HEAP_BASE = 0x2006_0000
HEAP_SIZE = 0x1_0000


@pytest.fixture
def rmap():
    return RevocationMap(HEAP_BASE, HEAP_SIZE)


class TestGeometry:
    def test_granule_is_capability_sized(self):
        assert GRANULE_BYTES == 8

    def test_sram_overhead_is_paper_figure(self):
        """1/(8*8) = 1.56% of the revocable heap (section 3.3.1)."""
        assert SRAM_OVERHEAD == pytest.approx(0.015625)

    def test_bitmap_bytes(self, rmap):
        assert rmap.granule_count == HEAP_SIZE // 8
        assert rmap.bitmap_bytes == HEAP_SIZE // 64
        assert rmap.bitmap_bytes / HEAP_SIZE == pytest.approx(SRAM_OVERHEAD)

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            RevocationMap(HEAP_BASE + 1, HEAP_SIZE)


class TestPaintClear:
    def test_paint_marks_whole_chunk(self, rmap):
        rmap.paint(HEAP_BASE + 64, 48)
        for offset in range(64, 112, 8):
            assert rmap.is_revoked(HEAP_BASE + offset)
        assert not rmap.is_revoked(HEAP_BASE + 56)
        assert not rmap.is_revoked(HEAP_BASE + 112)

    def test_paint_partial_granule_rounds_to_granule(self, rmap):
        rmap.paint(HEAP_BASE + 64, 4)
        assert rmap.is_revoked(HEAP_BASE + 64)
        assert rmap.is_revoked(HEAP_BASE + 67)

    def test_clear(self, rmap):
        rmap.paint(HEAP_BASE, 128)
        rmap.clear(HEAP_BASE, 128)
        assert not rmap.any_revoked()

    def test_zero_size_noop(self, rmap):
        rmap.paint(HEAP_BASE, 0)
        assert not rmap.any_revoked()

    def test_outside_region_rejected(self, rmap):
        with pytest.raises(ValueError):
            rmap.paint(HEAP_BASE - 8, 8)
        with pytest.raises(ValueError):
            rmap.paint(HEAP_BASE + HEAP_SIZE - 8, 16)


class TestLookup:
    def test_irrevocable_addresses_never_revoked(self, rmap):
        """Code/globals/stack addresses are outside the revocable

        region: the load filter must treat them as never-freed."""
        assert not rmap.is_revoked(0x1000)
        assert not rmap.is_revoked(HEAP_BASE - 1)
        assert not rmap.is_revoked(HEAP_BASE + HEAP_SIZE)


class TestMMIOView:
    def test_bits_visible_through_mmio(self, rmap):
        rmap.paint(HEAP_BASE, 8)  # granule 0 -> bit 0 of word 0
        rmap.paint(HEAP_BASE + 33 * 8, 8)  # granule 33 -> bit 1 of word 4
        assert rmap.mmio_read(0) & 1 == 1
        assert rmap.mmio_read(4) & 0b10 == 0b10

    def test_mmio_write_sets_and_clears(self, rmap):
        rmap.mmio_write(0, 0xFFFF_FFFF)
        assert rmap.is_revoked(HEAP_BASE)
        assert rmap.is_revoked(HEAP_BASE + 31 * 8)
        assert not rmap.is_revoked(HEAP_BASE + 32 * 8)
        rmap.mmio_write(0, 0)
        assert not rmap.any_revoked()

    def test_mmio_roundtrip(self, rmap):
        rmap.mmio_write(8, 0xA5A5_5A5A)
        assert rmap.mmio_read(8) == 0xA5A5_5A5A

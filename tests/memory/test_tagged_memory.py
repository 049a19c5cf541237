"""Tests for tagged SRAM: tags live out of band and die on data writes."""

import pytest

from repro.capability import CAP_SIZE_BYTES, Capability, Permission as P
from repro.memory import SystemBus
from repro.memory.tagged_memory import MemoryError_, TaggedMemory

RW = {P.GL, P.LD, P.SD, P.MC, P.SL, P.LM, P.LG}
BASE = 0x2000_0000


@pytest.fixture
def mem():
    return TaggedMemory(BASE, 4096)


@pytest.fixture
def cap():
    return Capability.from_bounds(BASE, 64, RW)


class TestConstruction:
    def test_alignment_required(self):
        with pytest.raises(ValueError):
            TaggedMemory(BASE + 4, 4096)
        with pytest.raises(ValueError):
            TaggedMemory(BASE, 4097)


class TestDataAccess:
    def test_bytes_roundtrip(self, mem):
        mem.write_bytes(BASE + 10, b"hello")
        assert mem.read_bytes(BASE + 10, 5) == b"hello"

    def test_word_endianness(self, mem):
        mem.write_word(BASE, 0x0102_0304, 4)
        assert mem.read_bytes(BASE, 4) == bytes([0x04, 0x03, 0x02, 0x01])

    def test_word_alignment(self, mem):
        with pytest.raises(MemoryError_):
            mem.read_word(BASE + 2, 4)
        with pytest.raises(MemoryError_):
            mem.write_word(BASE + 1, 0, 2)

    def test_out_of_range(self, mem):
        with pytest.raises(MemoryError_):
            mem.read_bytes(BASE + 4096, 1)
        with pytest.raises(MemoryError_):
            mem.read_bytes(BASE - 1, 1)

    @pytest.mark.parametrize("offset, size", ((2, -1), (2, -5), (200, -100)))
    def test_negative_read_size(self, offset, size):
        """A negative size raises ``ValueError`` naming it, from the bank
        and through the bus, though ``address + size`` lies in the bank
        (a range check alone passes it, inside the bank and past its
        end)."""
        bus = SystemBus()
        bank = bus.attach_sram(TaggedMemory(BASE, 128))
        for memory in (bank, bus):
            with pytest.raises(ValueError, match=f"read of {size} bytes"):
                memory.read_bytes(BASE + offset, size)

    @pytest.mark.parametrize("size", (0, 3, 8, -4))
    def test_word_size_outside_contract(self, mem, size):
        """Only 1, 2 and 4 bytes: any other size raises ``ValueError``
        naming it, before the alignment test (which divides by it) and
        the range check, and writes nothing."""
        mem.write_bytes(BASE, b"\xaa" * 16)
        for address in (BASE, BASE + 1, BASE - 64):
            with pytest.raises(ValueError, match=f"word access of {size} bytes"):
                mem.read_word(address, size)
            with pytest.raises(ValueError, match=f"word access of {size} bytes"):
                mem.write_word(address, 0x1234_5678, size)
        assert mem.read_bytes(BASE, 16) == b"\xaa" * 16

    def test_fill(self, mem):
        mem.write_bytes(BASE, b"\xff" * 64)
        mem.fill(BASE + 8, 16)
        assert mem.read_bytes(BASE + 8, 16) == b"\x00" * 16
        assert mem.read_bytes(BASE, 8) == b"\xff" * 8


class TestCapabilityStorage:
    def test_roundtrip(self, mem, cap):
        mem.write_capability(BASE + 8, cap)
        assert mem.read_capability(BASE + 8) == cap

    def test_untagged_read_of_plain_data(self, mem):
        mem.write_word(BASE, 0xDEAD_BEEF, 4)
        loaded = mem.read_capability(BASE)
        assert not loaded.tag

    def test_misaligned_capability_access(self, mem, cap):
        with pytest.raises(MemoryError_):
            mem.write_capability(BASE + 4, cap)
        with pytest.raises(MemoryError_):
            mem.read_capability(BASE + 4)

    def test_untagged_store_clears_tag(self, mem, cap):
        mem.write_capability(BASE, cap)
        mem.write_capability(BASE, cap.untagged())
        assert not mem.read_capability(BASE).tag

    @pytest.mark.parametrize("offset", range(0, CAP_SIZE_BYTES))
    def test_any_overlapping_data_write_clears_tag(self, mem, cap, offset):
        """No partial overwrite can leave a forgeable half-capability."""
        mem.write_capability(BASE, cap)
        mem.write_bytes(BASE + offset, b"\x00")
        assert not mem.read_capability(BASE).tag

    def test_data_write_straddling_two_granules(self, mem, cap):
        mem.write_capability(BASE, cap)
        second = cap.inc_address(8)
        mem.write_capability(BASE + 8, cap)
        mem.write_bytes(BASE + 6, b"\xaa\xbb\xcc\xdd")
        assert not mem.read_capability(BASE).tag
        assert not mem.read_capability(BASE + 8).tag

    def test_adjacent_tag_untouched(self, mem, cap):
        mem.write_capability(BASE, cap)
        mem.write_word(BASE + 8, 1, 4)
        assert mem.read_capability(BASE).tag

    def test_clear_tag(self, mem, cap):
        mem.write_capability(BASE + 16, cap)
        mem.clear_tag(BASE + 19)  # any byte in the granule
        assert not mem.read_capability(BASE + 16).tag
        # Data is untouched: only the out-of-band tag died.
        assert mem.read_capability(BASE + 16).address == cap.address


class TestEmptyWrites:
    """A zero-length write touches no byte, so no granule and no tag."""

    @pytest.mark.parametrize("offset", (0, 3, 8))
    def test_empty_write_keeps_tag(self, mem, cap, offset):
        mem.write_capability(BASE + 8, cap)
        mem.write_bytes(BASE + 8 + offset, b"")
        mem.fill(BASE + 8 + offset, 0)
        assert mem.read_capability(BASE + 8) == cap
        assert mem.read_capability(BASE + 8).tag

    def test_empty_write_at_bank_end(self, mem, cap):
        mem.write_capability(BASE + 4088, cap)
        mem.write_bytes(BASE + 4096, b"")
        mem.fill(BASE + 4096, 0)
        assert mem.read_capability(BASE + 4088).tag

    def test_empty_write_outside_bank_still_faults(self, mem):
        with pytest.raises(MemoryError_):
            mem.write_bytes(BASE + 4097, b"")
        with pytest.raises(MemoryError_):
            mem.fill(BASE - 8, 0)


class TestTaggedGranules:
    def test_enumeration(self, mem, cap):
        for offset in (0, 24, 4088):
            mem.write_capability(BASE + offset, cap)
        assert list(mem.tagged_granules()) == [BASE, BASE + 24, BASE + 4088]

    def test_window(self, mem, cap):
        for offset in (0, 24, 4088):
            mem.write_capability(BASE + offset, cap)
        assert list(mem.tagged_granules(BASE + 8, BASE + 4088)) == [BASE + 24]

    def test_empty(self, mem):
        assert list(mem.tagged_granules()) == []

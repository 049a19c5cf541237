"""Tests for the system bus: routing, stats and the store snoop."""

import pytest

from repro.capability import Capability, Permission as P
from repro.memory.bus import SystemBus
from repro.memory.revocation_map import RevocationMap
from repro.memory.tagged_memory import MemoryError_, TaggedMemory
from repro.revoker.hardware import REG_END, REG_KICK, REG_START, BackgroundRevoker

RW = {P.GL, P.LD, P.SD, P.MC, P.SL, P.LM, P.LG}
SRAM_BASE = 0x2000_0000


@pytest.fixture
def bus():
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(SRAM_BASE, 4096))
    return bus


class _Device:
    def __init__(self):
        self.regs = {}

    def mmio_read(self, offset):
        return self.regs.get(offset, 0)

    def mmio_write(self, offset, value):
        self.regs[offset] = value


class TestRouting:
    def test_sram_roundtrip(self, bus):
        bus.write_word(SRAM_BASE + 8, 0x1234, 4)
        assert bus.read_word(SRAM_BASE + 8, 4) == 0x1234

    def test_device_dispatch(self, bus):
        device = _Device()
        bus.attach_device(0x8000_0000, 0x100, device)
        bus.write_word(0x8000_0010, 99, 4)
        assert device.regs[0x10] == 99
        assert bus.read_word(0x8000_0010, 4) == 99

    def test_unmapped_address_faults(self, bus):
        with pytest.raises(MemoryError_):
            bus.read_word(0x9000_0000, 4)

    def test_overlap_rejected(self, bus):
        with pytest.raises(ValueError):
            bus.attach_sram(TaggedMemory(SRAM_BASE + 8, 4096))
        device = _Device()
        bus.attach_device(0x8000_0000, 0x100, device)
        with pytest.raises(ValueError):
            bus.attach_device(0x8000_0080, 0x100, _Device())

    def test_revocation_map_as_device(self, bus):
        rmap = RevocationMap(SRAM_BASE, 4096)
        bus.attach_device(0x8000_0000, 0x100, rmap)
        bus.write_word(0x8000_0000, 1, 4)
        assert rmap.is_revoked(SRAM_BASE)


class TestEmptyWrites:
    """A zero-length store is decoded like any store (outside every bank
    it faults), but it writes, counts and snoops nothing."""

    def test_empty_write_keeps_tag(self, bus):
        cap = Capability.from_bounds(SRAM_BASE, 64, RW)
        bus.write_capability(SRAM_BASE + 16, cap)
        bus.write_bytes(SRAM_BASE + 16, b"")
        bus.fill(SRAM_BASE + 20, 0)
        assert bus.read_capability(SRAM_BASE + 16).tag

    def test_empty_write_at_bank_end(self, bus):
        cap = Capability.from_bounds(SRAM_BASE, 64, RW)
        bus.write_capability(SRAM_BASE + 4088, cap)
        bus.write_bytes(SRAM_BASE + 4096, b"")
        bus.fill(SRAM_BASE + 4096, 0)
        assert bus.read_capability(SRAM_BASE + 4088).tag

    def test_empty_store_is_neither_counted_nor_snooped(self, bus):
        seen = []
        bus.add_store_snooper(lambda addr, size: seen.append((addr, size)))
        bus.write_bytes(SRAM_BASE + 16, b"")
        bus.fill(SRAM_BASE + 16, 0)
        bus.fill(SRAM_BASE + 4096, 0)
        assert seen == []
        assert bus.stats.data_writes == 0

    def test_empty_store_outside_every_bank_faults(self, bus):
        with pytest.raises(MemoryError_):
            bus.write_bytes(SRAM_BASE + 4097, b"")
        with pytest.raises(MemoryError_):
            bus.fill(SRAM_BASE - 8, 0)
        assert bus.stats.data_writes == 0

    def test_empty_store_leaves_the_revokers_in_flight_word_clean(self, bus):
        """A pass is running with one word in flight: an empty store at
        that word must not force a reload of a word nobody wrote."""
        revoker = BackgroundRevoker(bus, RevocationMap(SRAM_BASE, 4096))
        revoker.mmio_write(REG_START, SRAM_BASE)
        revoker.mmio_write(REG_END, SRAM_BASE + 4096)
        revoker.mmio_write(REG_KICK, 1)
        revoker.step()
        (in_flight,) = revoker._pipeline
        bus.fill(in_flight.address, 0)
        bus.write_bytes(in_flight.address, b"")
        assert not in_flight.dirty
        assert revoker.stats.reloads == 0
        assert bus.stats.data_writes == 0
        bus.write_bytes(in_flight.address, b"x")
        assert in_flight.dirty and revoker.stats.reloads == 1


class TestStats:
    def test_counters(self, bus):
        cap = Capability.from_bounds(SRAM_BASE, 16, RW)
        bus.write_word(SRAM_BASE, 1, 4)
        bus.read_word(SRAM_BASE, 4)
        bus.write_capability(SRAM_BASE + 8, cap)
        bus.read_capability(SRAM_BASE + 8)
        stats = bus.stats
        assert stats.data_writes == 1 and stats.data_reads == 1
        assert stats.cap_writes == 1 and stats.cap_reads == 1
        stats.reset()
        assert stats.data_writes == 0


class TestStoreSnoop:
    def test_snoop_sees_all_store_kinds(self, bus):
        seen = []
        bus.add_store_snooper(lambda addr, size: seen.append((addr, size)))
        cap = Capability.from_bounds(SRAM_BASE, 16, RW)
        bus.write_word(SRAM_BASE, 1, 4)
        bus.write_capability(SRAM_BASE + 8, cap)
        bus.write_bytes(SRAM_BASE + 16, b"ab")
        bus.fill(SRAM_BASE + 32, 8)
        bus.clear_tag(SRAM_BASE + 8)
        assert (SRAM_BASE, 4) in seen
        assert (SRAM_BASE + 8, 8) in seen
        assert (SRAM_BASE + 16, 2) in seen
        assert (SRAM_BASE + 32, 8) in seen
        assert len(seen) == 5

    def test_loads_not_snooped(self, bus):
        seen = []
        bus.add_store_snooper(lambda addr, size: seen.append(addr))
        bus.read_word(SRAM_BASE, 4)
        assert seen == []

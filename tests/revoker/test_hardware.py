"""Tests for the background hardware revoker (section 3.3.3)."""

import pytest

from repro.machine import System
from repro.revoker.hardware import (
    REG_END,
    REG_EPOCH,
    REG_KICK,
    REG_START,
    BackgroundRevoker,
)
from .conftest import HEAP_BASE, SRAM_BASE, heap_cap


@pytest.fixture
def revoker(bus, rmap, core):
    return BackgroundRevoker(bus, rmap, core_model=core)


def _arm(revoker, start, end):
    revoker.mmio_write(REG_START, start)
    revoker.mmio_write(REG_END, end)
    revoker.mmio_write(REG_KICK, 1)


class TestMMIOInterface:
    def test_registers_readback(self, revoker):
        revoker.mmio_write(REG_START, SRAM_BASE)
        revoker.mmio_write(REG_END, SRAM_BASE + 0x100)
        assert revoker.mmio_read(REG_START) == SRAM_BASE
        assert revoker.mmio_read(REG_END) == SRAM_BASE + 0x100

    def test_addresses_granule_aligned(self, revoker):
        revoker.mmio_write(REG_START, SRAM_BASE + 5)
        assert revoker.mmio_read(REG_START) == SRAM_BASE

    def test_epoch_read_only(self, revoker):
        before = revoker.mmio_read(REG_EPOCH)
        revoker.mmio_write(REG_EPOCH, 99)
        assert revoker.mmio_read(REG_EPOCH) == before

    def test_kick_starts_pass(self, revoker):
        _arm(revoker, SRAM_BASE, SRAM_BASE + 0x100)
        assert revoker.running
        assert revoker.mmio_read(REG_EPOCH) % 2 == 1  # sweep in progress

    def test_kick_while_running_is_noop(self, revoker):
        _arm(revoker, SRAM_BASE, SRAM_BASE + 0x100)
        epoch = revoker.mmio_read(REG_EPOCH)
        revoker.mmio_write(REG_KICK, 1)
        assert revoker.mmio_read(REG_EPOCH) == epoch

    def test_empty_region_kick_ignored(self, revoker):
        revoker.mmio_write(REG_START, SRAM_BASE)
        revoker.mmio_write(REG_END, SRAM_BASE)
        revoker.mmio_write(REG_KICK, 1)
        assert not revoker.running


class TestSweep:
    def test_bulk_pass_invalidates_stale(self, bus, rmap, roots, revoker):
        stale = heap_cap(roots)
        live = heap_cap(roots, 0x100)
        bus.write_capability(SRAM_BASE + 0x10, stale)
        bus.write_capability(SRAM_BASE + 0x18, live)
        rmap.paint(HEAP_BASE, 64)
        _arm(revoker, SRAM_BASE, SRAM_BASE + 0x1000)
        cycles = revoker.run_to_completion()
        assert cycles > 0
        assert not revoker.running
        assert not bus.read_capability(SRAM_BASE + 0x10).tag
        assert bus.read_capability(SRAM_BASE + 0x18).tag
        assert revoker.stats.invalidations == 1
        assert revoker.mmio_read(REG_EPOCH) % 2 == 0

    def test_detailed_stepping_matches_bulk(self, bus, rmap, roots, revoker):
        stale = heap_cap(roots)
        for offset in range(0, 0x100, 8):
            bus.write_capability(SRAM_BASE + offset, stale)
        rmap.paint(HEAP_BASE, 64)
        _arm(revoker, SRAM_BASE, SRAM_BASE + 0x100)
        revoker.run_to_completion(detailed=True)
        for offset in range(0, 0x100, 8):
            assert not bus.read_capability(SRAM_BASE + offset).tag

    def test_two_words_in_flight(self, bus, rmap, roots, revoker):
        """The engine is pipelined two deep (section 3.3.3)."""
        _arm(revoker, SRAM_BASE, SRAM_BASE + 0x40)
        revoker.step()
        revoker.step()
        assert len(revoker._pipeline) == 2


class TestStoreRace:
    def test_store_to_in_flight_word_forces_reload(self, bus, rmap, roots, revoker):
        """The paper's race: revoker holds word at A in flight, the

        application overwrites A, the revoker must reload rather than
        write back its stale (possibly invalidated) copy."""
        stale = heap_cap(roots)
        fresh = heap_cap(roots, 0x200)  # NOT freed
        target = SRAM_BASE + 0x20
        bus.write_capability(target, stale)
        rmap.paint(HEAP_BASE, 64)

        _arm(revoker, target, target + 0x10)
        revoker.step()  # load word at `target` into the pipeline
        assert revoker._pipeline[0].address == target
        # Main pipeline stores a *live* capability over it mid-flight.
        bus.write_capability(target, fresh)
        revoker.run_to_completion(detailed=True)
        # Without the snoop the revoker would have cleared the tag of
        # the freshly stored (live) capability.
        survivor = bus.read_capability(target)
        assert survivor.tag
        assert survivor.base == fresh.base
        assert revoker.stats.reloads >= 1

    def test_unrelated_store_does_not_reload(self, bus, rmap, roots, revoker):
        _arm(revoker, SRAM_BASE, SRAM_BASE + 0x40)
        revoker.step()
        bus.write_word(SRAM_BASE + 0x800, 5, 4)
        assert revoker.stats.reloads == 0

    def test_snoop_inactive_when_idle(self, bus, rmap, revoker):
        bus.write_word(SRAM_BASE, 1, 4)
        assert revoker.stats.reloads == 0


class TestCostModel:
    def test_wall_cycles_scale_with_region(self, bus, rmap, core, revoker):
        _arm(revoker, SRAM_BASE, SRAM_BASE + 0x1000)
        small = revoker.run_to_completion()
        _arm(revoker, SRAM_BASE, SRAM_BASE + 0x2000)
        large = revoker.run_to_completion()
        assert large == pytest.approx(2 * small, rel=0.1)


class TestSnoopSubscription:
    """The engine snoops the bus's stores only while a pass runs."""

    def test_no_snooper_outside_a_pass(self, bus, revoker):
        assert bus._store_snoopers == []
        revoker.mmio_write(REG_START, SRAM_BASE)
        revoker.mmio_write(REG_END, SRAM_BASE)
        revoker.mmio_write(REG_KICK, 1)  # empty region: no pass
        assert bus._store_snoopers == []

    @pytest.mark.parametrize("detailed", [False, True], ids=["bulk", "detailed"])
    def test_kick_adds_one_and_finish_removes_it(self, bus, revoker, detailed):
        seen = []
        bus.add_store_snooper(lambda address, size: seen.append(address))
        other = list(bus._store_snoopers)
        for _ in range(2):
            _arm(revoker, SRAM_BASE, SRAM_BASE + 0x40)
            assert bus._store_snoopers == other + [revoker._snoop_store]
            revoker.mmio_write(REG_KICK, 1)  # already running: no-op
            assert bus._store_snoopers == other + [revoker._snoop_store]
            revoker.run_to_completion(detailed=detailed)
            assert not revoker.running
            assert bus._store_snoopers == other
        bus.write_word(SRAM_BASE, 1, 4)
        assert seen == [SRAM_BASE]
        assert revoker.stats.passes == 2

    def test_stepping_to_the_end_removes_it(self, bus, revoker):
        _arm(revoker, SRAM_BASE, SRAM_BASE + 0x10)
        while revoker.step():
            assert bus._store_snoopers == [revoker._snoop_store]
        assert bus._store_snoopers == []

    def test_system_bus_has_no_snooper_between_passes(self):
        system = System.build()
        assert system.bus._store_snoopers == []
        system.free(system.malloc(64))
        assert system.bus._store_snoopers == []
        system.allocator.revoke_now()
        assert system.hardware_revoker.stats.passes == 1
        assert system.bus._store_snoopers == []

"""Multi-hart revoker snooping (paper section 3.3.3, closing remark).

"In cases where microcontrollers use multiple cores for performance
isolation then the revoker would need to snoop on all memory traffic
from either core."  Our bus broadcasts every store to registered
snoopers regardless of which agent issued it, so the race fix holds
with a second hart sharing the memory system.
"""

import pytest

from repro.capability import make_roots
from repro.isa import CPU, ExecutionMode, assemble
from repro.memory import RevocationMap, SystemBus, TaggedMemory
from repro.revoker import BackgroundRevoker

SRAM_BASE = 0x2000_0000
HEAP_BASE = 0x2000_8000


@pytest.fixture
def shared_system():
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(SRAM_BASE, 0x1_0000))
    rmap = RevocationMap(HEAP_BASE, 0x8000)
    roots = make_roots()
    revoker = BackgroundRevoker(bus, rmap)
    return bus, rmap, roots, revoker


def test_second_hart_store_is_snooped_mid_flight(shared_system):
    """Hart B overwrites a word the revoker holds in flight; the snoop

    must force a reload so B's live capability survives the sweep."""
    bus, rmap, roots, revoker = shared_system
    stale = roots.memory.set_address(HEAP_BASE).set_bounds(64)
    live = roots.memory.set_address(HEAP_BASE + 0x1000).set_bounds(64)
    target = SRAM_BASE + 0x40
    bus.write_capability(target, stale)
    rmap.paint(HEAP_BASE, 64)

    revoker.mmio_write(0x0, target)
    revoker.mmio_write(0x4, target + 0x20)
    revoker.kick()
    revoker.step()  # the word is now in flight

    # Hart B: an independent CPU sharing the same bus, running a store
    # to exactly that address.
    hart_b = CPU(bus, ExecutionMode.CHERIOT)
    hart_b.load_program(
        assemble("csc s1, 0(s0)\nhalt"), SRAM_BASE + 0x8000, pcc=roots.executable
    )
    hart_b.regs.write(
        8, roots.memory.set_address(target).set_bounds(16)
    )
    hart_b.regs.write(9, live)
    hart_b.run()

    revoker.run_to_completion(detailed=True)
    survivor = bus.read_capability(target)
    assert survivor.tag
    assert survivor.base == live.base
    assert revoker.stats.reloads >= 1


def test_two_harts_share_temporal_safety(shared_system):
    """Both harts' stashes are swept; both live pointers survive."""
    bus, rmap, roots, revoker = shared_system
    freed = roots.memory.set_address(HEAP_BASE + 0x100).set_bounds(32)
    kept = roots.memory.set_address(HEAP_BASE + 0x2000).set_bounds(32)

    # Hart A stashes the doomed pointer, hart B the live one.
    for hart, (cap, slot) in enumerate(
        [(freed, SRAM_BASE + 0x100), (kept, SRAM_BASE + 0x200)]
    ):
        cpu = CPU(bus, ExecutionMode.CHERIOT)
        cpu.load_program(
            assemble("csc s1, 0(s0)\nhalt"),
            SRAM_BASE + 0x8000 + hart * 0x100,
            pcc=roots.executable,
        )
        cpu.regs.write(8, roots.memory.set_address(slot).set_bounds(16))
        cpu.regs.write(9, cap)
        cpu.run()

    rmap.paint(HEAP_BASE + 0x100, 32)
    revoker.mmio_write(0x0, SRAM_BASE)
    revoker.mmio_write(0x4, SRAM_BASE + 0x1000)
    revoker.kick()
    revoker.run_to_completion()

    assert not bus.read_capability(SRAM_BASE + 0x100).tag
    assert bus.read_capability(SRAM_BASE + 0x200).tag

#!/usr/bin/env python3
"""Bare-metal CHERIoT assembly on the ISA simulator.

Runs a small capability-aware program (the ``baremetal`` image that
the static verifier audits, ``repro.verify.images.BAREMETAL_TOUR``) on
the functional simulator under the Ibex timing model, and shows a
use-after-free dying in "hardware" at the load filter.

Run with::

    python examples/baremetal_assembly.py
"""

from repro.capability import make_roots
from repro.isa import CPU, ExecutionMode, LoadFilter, Trap, assemble
from repro.memory import RevocationMap, SystemBus, TaggedMemory, default_memory_map
from repro.pipeline import CoreKind, make_core_model
from repro.verify.images import (
    BAREMETAL_TOUR,
    BAREMETAL_UAF,
    baremetal_entry_registers,
)


def main() -> None:
    mm = default_memory_map()
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
    rmap = RevocationMap(mm.heap.base, mm.heap.size)
    roots = make_roots()
    core = make_core_model(CoreKind.IBEX, load_filter_enabled=True)

    cpu = CPU(bus, ExecutionMode.CHERIOT, load_filter=LoadFilter(rmap), timing=core)
    program = assemble(BAREMETAL_TOUR + BAREMETAL_UAF)
    cpu.load_program(program, mm.code.base, pcc=roots.executable, entry="_start")

    heap_obj, stash = baremetal_entry_registers()
    cpu.regs.write(8, heap_obj)   # s0
    cpu.regs.write(9, stash)      # s1

    stats = cpu.run()
    print("first run:")
    print(f"  read back        {cpu.regs.read_int(10):#x}")
    print(f"  reloaded tag     {cpu.regs.read_int(11)}")
    print(f"  instructions     {stats.instructions}, cycles {core.cycles}")

    # "Free" the object: the allocator would paint its granules.
    rmap.paint(mm.heap.base + 32, 16)
    print("\nobject freed (revocation bits painted); attacker retries:")

    cpu.load_program(program, mm.code.base, pcc=roots.executable, entry="_uaf")
    cpu.regs.write(9, stash)
    try:
        cpu.run()
        print("  UAF SUCCEEDED (bug!)")
    except Trap as trap:
        print(f"  reloaded tag     {cpu.regs.read_int(11)}")
        print(f"  dereference  ->  {trap}")
    print(f"  load filter strips: {cpu.load_filter.stats.tags_stripped}")


if __name__ == "__main__":
    main()

"""ISA-level end-to-end temporal safety: a use-after-free dies in

hardware.  The attacking program is real simulated machine code; the
allocator, revocation bits, load filter and revoker are the real
subsystems wired into one System.
"""

import pytest

from repro.allocator import TemporalSafetyMode
from repro.isa import Trap, TrapCause, assemble
from repro.machine import System
from repro.pipeline import CoreKind


@pytest.fixture
def system():
    return System.build(core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE)


def test_uaf_attack_dies_at_the_load(system):
    """The attacker stashes a heap pointer, the owner frees the object,

    revocation runs; when the attacker loads its stashed copy the load
    filter strips the tag and the dereference traps."""
    victim = system.malloc(64)
    stash = system.malloc(64)
    # Attacker stashes a copy of the victim pointer.
    system.bus.write_capability(stash.base, victim)
    # Owner frees; allocator paints + zeroes + quarantines; sweep runs.
    system.free(victim)
    system.allocator.revoke_now()

    attack = assemble(
        """
        clc a0, 0(s0)       # load the stashed (stale) pointer
        lw a1, 0(a0)        # and dereference it
        halt
        """
    )
    cpu = system.make_cpu()
    from repro.capability import make_roots

    roots = make_roots()  # test-only: stand-in for the attacker's PCC
    cpu.load_program(attack, system.memory_map.code.base + 0x8000, pcc=roots.executable)
    cpu.regs.write(8, stash)
    with pytest.raises(Trap) as excinfo:
        cpu.run()
    # The load filter already stripped the tag, so the dereference is a
    # *tag* violation — deterministic, not probabilistic.
    assert excinfo.value.cause is TrapCause.CHERI_TAG
    assert not cpu.regs.read(10).tag
    assert cpu.load_filter is not None
    assert cpu.load_filter.stats.loads_checked >= 1


def test_live_pointer_still_works_through_the_same_path(system):
    """Control: the identical program on a live allocation succeeds."""
    obj = system.malloc(64)
    stash = system.malloc(64)
    system.bus.write_capability(stash.base, obj)
    system.bus.write_word(obj.base, 0xFEED, 4)

    program = assemble("clc a0, 0(s0)\nlw a1, 0(a0)\nhalt")
    cpu = system.make_cpu()
    from repro.capability import make_roots

    cpu.load_program(
        program, system.memory_map.code.base + 0x8000, pcc=make_roots().executable
    )
    cpu.regs.write(8, stash)
    cpu.run()
    assert cpu.regs.read_int(11) == 0xFEED


def test_quarantined_memory_is_unreachable_even_before_sweep(system):
    """The stronger-than-prior-work guarantee (section 3.3): UAF is

    impossible as soon as free() returns, not merely after reuse."""
    victim = system.malloc(64)
    stash = system.malloc(64)
    system.bus.write_capability(stash.base, victim)
    system.free(victim)  # no revocation pass yet: memory quarantined

    program = assemble("clc a0, 0(s0)\nlw a1, 0(a0)\nhalt")
    cpu = system.make_cpu()
    from repro.capability import make_roots

    cpu.load_program(
        program, system.memory_map.code.base + 0x8000, pcc=make_roots().executable
    )
    cpu.regs.write(8, stash)
    with pytest.raises(Trap) as excinfo:
        cpu.run()
    assert excinfo.value.cause is TrapCause.CHERI_TAG

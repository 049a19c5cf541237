"""Negative control: the load filter is load-bearing.

With the filter disabled, a stale capability stashed in memory remains
loadable (and usable!) during the quarantine window — exactly the
weaker "use after reallocation only" model of prior MMU-based work the
paper improves on (section 3.3).  These tests pin down that the strong
guarantee really comes from the filter, not from some accident of the
allocator model.
"""

import pytest

from repro.capability import make_roots
from repro.isa import Trap, TrapCause, assemble
from repro.machine import System
from repro.pipeline import CoreKind


def _stale_attack(system):
    """Stash a pointer, free it, reload and dereference via the ISA."""
    victim = system.malloc(64)
    stash = system.malloc(64)
    system.bus.write_capability(stash.base, victim)
    system.free(victim)  # quarantined; no sweep yet

    cpu = system.make_cpu()
    cpu.load_program(
        assemble("clc a0, 0(s0)\nlw a1, 0(a0)\nhalt"),
        system.memory_map.code.base + 0x8000,
        pcc=make_roots().executable,
    )
    cpu.regs.write(8, stash)
    return cpu


class TestFilterIsLoadBearing:
    def test_with_filter_uaf_dies_during_quarantine(self):
        system = System.build(core=CoreKind.IBEX, load_filter_enabled=True)
        cpu = _stale_attack(system)
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_TAG

    def test_without_filter_quarantine_window_is_exploitable(self):
        """Disable the filter: the same attack *succeeds* until a sweep

        runs — the weaker model the paper refuses to settle for."""
        system = System.build(core=CoreKind.IBEX, load_filter_enabled=False)
        cpu = _stale_attack(system)
        cpu.run()  # no trap: the UAF read went through
        assert cpu.regs.read(10).tag  # the stale capability survived

    def test_without_filter_sweep_still_saves_reuse(self):
        """Even filterless, the sweep invalidates before reuse — the

        'use after reallocation' half of the guarantee holds."""
        system = System.build(core=CoreKind.IBEX, load_filter_enabled=False)
        victim = system.malloc(64)
        stash = system.malloc(64)
        system.bus.write_capability(stash.base, victim)
        system.free(victim)
        system.allocator.revoke_now()  # the sweep clears the memory tag
        cpu = system.make_cpu()
        cpu.load_program(
            assemble("clc a0, 0(s0)\nlw a1, 0(a0)\nhalt"),
            system.memory_map.code.base + 0x8000,
            pcc=make_roots().executable,
        )
        cpu.regs.write(8, stash)
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_TAG

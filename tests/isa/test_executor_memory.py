"""Tests for load/store semantics: capability checks, clc/csc, the

load filter, and the stack high-water mark hook."""

import pytest

from repro.capability import Permission as P
from repro.isa import ExecutionMode, LoadFilter, Trap, TrapCause
from .conftest import DATA_BASE, HEAP_BASE, make_cpu


class TestPlainLoadsStores:
    def test_word_roundtrip(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "li a0, 0x1234\nsw a0, 8(s0)\nlw a1, 8(s0)\nhalt")
        cpu.regs.write(8, data_cap)
        cpu.run()
        assert cpu.regs.read_int(11) == 0x1234

    def test_byte_sign_extension(self, bus, roots, data_cap):
        cpu = make_cpu(
            bus, roots,
            "li a0, 0x80\nsb a0, 0(s0)\nlb a1, 0(s0)\nlbu a2, 0(s0)\nhalt",
        )
        cpu.regs.write(8, data_cap)
        cpu.run()
        assert cpu.regs.read_int(11) == 0xFFFF_FF80
        assert cpu.regs.read_int(12) == 0x80

    def test_halfword(self, bus, roots, data_cap):
        cpu = make_cpu(
            bus, roots,
            "li a0, 0x8001\nsh a0, 2(s0)\nlh a1, 2(s0)\nlhu a2, 2(s0)\nhalt",
        )
        cpu.regs.write(8, data_cap)
        cpu.run()
        assert cpu.regs.read_int(11) == 0xFFFF_8001
        assert cpu.regs.read_int(12) == 0x8001

    def test_misaligned_traps(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "lw a0, 2(s0)\nhalt")
        cpu.regs.write(8, data_cap)
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.MISALIGNED


class TestCapabilityChecks:
    def test_untagged_authority_traps(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "lw a0, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap.untagged())
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_TAG

    def test_out_of_bounds_traps(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "lw a0, 256(s0)\nhalt")
        cpu.regs.write(8, data_cap)
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_BOUNDS

    def test_store_without_sd_traps(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "sw a0, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap.clear_perms(P.SD))
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_PERMISSION

    def test_load_without_ld_traps(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "lw a0, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap.clear_perms(P.LD))
        with pytest.raises(Trap):
            cpu.run()

    def test_rv32e_mode_has_no_capability_checks(self, bus, roots):
        cpu = make_cpu(
            bus, roots, "li s0, 0x20008000\nli a0, 7\nsw a0, 0(s0)\nlw a1, 0(s0)\nhalt",
            mode=ExecutionMode.RV32E,
        )
        cpu.run()
        assert cpu.regs.read_int(11) == 7


class TestCapabilityLoadsStores:
    def test_clc_csc_roundtrip(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "csc s1, 0(s0)\nclc a0, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap)
        cpu.regs.write(9, data_cap.set_bounds(16))
        cpu.run()
        assert cpu.regs.read(10) == data_cap.set_bounds(16)
        assert cpu.bus.stats.cap_reads == 1 and cpu.bus.stats.cap_writes == 1

    def test_clc_requires_mc(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "clc a0, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap.and_perms({P.GL, P.LD, P.SD}))
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_PERMISSION

    def test_clc_in_rv32e_is_illegal(self, bus, roots):
        cpu = make_cpu(bus, roots, "clc a0, 0(s0)\nhalt", mode=ExecutionMode.RV32E)
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.ILLEGAL_INSTRUCTION

    def test_store_local_requires_sl(self, bus, roots, data_cap):
        """A tagged local capability can only be stored via SL (2.6)."""
        cpu = make_cpu(bus, roots, "csc s1, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap.clear_perms(P.SL))
        cpu.regs.write(9, data_cap.make_local())
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_PERMISSION

    def test_global_cap_stores_anywhere(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "csc s1, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap.clear_perms(P.SL))
        cpu.regs.write(9, data_cap)  # global
        cpu.run()

    def test_loaded_cap_attenuated_by_lg(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "csc s1, 0(s0)\nclc a0, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap.clear_perms(P.LG))
        cpu.regs.write(9, data_cap)
        cpu.run()
        loaded = cpu.regs.read(10)
        assert loaded.is_local and P.LG not in loaded.perms

    def test_loaded_cap_attenuated_by_lm(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "csc s1, 0(s0)\nclc a0, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap.clear_perms(P.LM))
        cpu.regs.write(9, data_cap)
        cpu.run()
        loaded = cpu.regs.read(10)
        assert P.SD not in loaded.perms and P.LM not in loaded.perms


class TestLoadFilter:
    def test_revoked_base_strips_tag(self, bus, roots, rmap):
        heap_cap = roots.memory.set_address(HEAP_BASE).set_bounds(64)
        stash = roots.memory.set_address(DATA_BASE).set_bounds(64)
        bus.write_capability(DATA_BASE, heap_cap)
        rmap.paint(HEAP_BASE, 64)  # "freed"
        cpu = make_cpu(
            bus, roots, "clc a0, 0(s0)\nhalt", load_filter=LoadFilter(rmap)
        )
        cpu.regs.write(8, stash)
        cpu.run()
        assert not cpu.regs.read(10).tag
        assert cpu.load_filter.stats.tags_stripped == 1

    def test_unrevoked_cap_passes(self, bus, roots, rmap):
        heap_cap = roots.memory.set_address(HEAP_BASE).set_bounds(64)
        stash = roots.memory.set_address(DATA_BASE).set_bounds(64)
        bus.write_capability(DATA_BASE, heap_cap)
        cpu = make_cpu(
            bus, roots, "clc a0, 0(s0)\nhalt", load_filter=LoadFilter(rmap)
        )
        cpu.regs.write(8, stash)
        cpu.run()
        assert cpu.regs.read(10).tag

    def test_filter_checks_base_not_address(self, bus, roots, rmap):
        """A stale pointer moved past the freed region still dies: the

        filter looks up the *base*, which monotonicity pins inside the
        original object (section 3.3.2)."""
        heap_cap = roots.memory.set_address(HEAP_BASE).set_bounds(64)
        moved = heap_cap.inc_address(60)
        stash = roots.memory.set_address(DATA_BASE).set_bounds(64)
        bus.write_capability(DATA_BASE, moved)
        rmap.paint(HEAP_BASE, 8)  # only the first granule painted
        cpu = make_cpu(
            bus, roots, "clc a0, 0(s0)\nhalt", load_filter=LoadFilter(rmap)
        )
        cpu.regs.write(8, stash)
        cpu.run()
        assert not cpu.regs.read(10).tag


class TestStackHighWaterMark:
    def test_stores_move_the_mark(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "sw a0, 64(s0)\nsw a0, 32(s0)\nsw a0, 48(s0)\nhalt")
        cpu.regs.write(8, data_cap)
        cpu.csr.set_stack(DATA_BASE, DATA_BASE + 256)
        cpu.run()
        assert cpu.csr.high_water_mark == DATA_BASE + 32

    def test_stores_outside_stack_dont_move_mark(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "sw a0, 0(s0)\nhalt")
        cpu.regs.write(8, data_cap)
        cpu.csr.set_stack(DATA_BASE + 128, DATA_BASE + 256)
        cpu.run()
        assert cpu.csr.high_water_mark == DATA_BASE + 256

"""Tests for jumps, sentries and interrupt-posture control (section 3.1.2)."""

import pytest

from repro.capability import Permission as P, SentryType
from repro.isa import CPU, ExecutionMode, Trap, TrapCause
from .conftest import CODE_BASE, make_cpu


class TestJumps:
    def test_jal_and_ret(self, bus, roots):
        cpu = make_cpu(
            bus, roots,
            """
            jal ra, func
            li a1, 2
            halt
            func:
            li a0, 1
            ret
            """,
        )
        cpu.run()
        assert cpu.regs.read_int(10) == 1
        assert cpu.regs.read_int(11) == 2

    def test_link_register_is_return_sentry(self, bus, roots):
        cpu = make_cpu(bus, roots, "jal ra, target\ntarget: halt")
        cpu.run()
        link = cpu.regs.read(1)
        assert link.is_sentry
        assert link.otype == SentryType.RETURN_ENABLED

    def test_link_captures_disabled_posture(self, bus, roots):
        cpu = make_cpu(bus, roots, "jal ra, target\ntarget: halt")
        cpu.csr.interrupts_enabled = False
        cpu.run()
        assert cpu.regs.read(1).otype == SentryType.RETURN_DISABLED

    def test_rv32e_link_is_plain_address(self, bus, roots):
        cpu = make_cpu(bus, roots, "jal ra, target\ntarget: halt",
                       mode=ExecutionMode.RV32E)
        cpu.run()
        assert cpu.regs.read_int(1) == CODE_BASE + 4

    def test_jump_to_untagged_traps(self, bus, roots):
        cpu = make_cpu(bus, roots, "jalr c0, t0\nhalt")
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_TAG

    def test_jump_to_non_executable_traps(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "jalr c0, s0\nhalt")
        cpu.regs.write(8, data_cap)
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_PERMISSION


class TestSentries:
    def _sentry_cpu(self, bus, roots, sentry_kind):
        """Program: seal 'func' as a sentry, jump through it."""
        return make_cpu(
            bus, roots,
            f"""
            cmove t0, c7
            csealentry t0, t0, {sentry_kind}
            jalr ra, t0
            halt
            func:
            li a0, 1
            jalr c0, ra
            """,
        )

    def _with_func_cap(self, cpu, roots):
        func_cap = roots.executable.set_address(CODE_BASE + 4 * 4)
        cpu.regs.write(7, func_cap)  # c7 = t2
        return cpu

    def test_disable_interrupts_sentry(self, bus, roots):
        cpu = self._with_func_cap(self._sentry_cpu(bus, roots, "disable"), roots)
        postures = []
        original = cpu.ecall_handler
        cpu.run()
        # After return through the link sentry, the original (enabled)
        # posture is restored.
        assert cpu.csr.interrupts_enabled
        assert cpu.regs.read_int(10) == 1

    def test_enable_interrupts_sentry(self, bus, roots):
        cpu = self._with_func_cap(self._sentry_cpu(bus, roots, "enable"), roots)
        cpu.csr.interrupts_enabled = False
        cpu.run()
        # Link sentry captured the disabled posture; restored on return.
        assert not cpu.csr.interrupts_enabled

    def test_inherit_sentry_keeps_posture(self, bus, roots):
        cpu = self._with_func_cap(self._sentry_cpu(bus, roots, "inherit"), roots)
        cpu.csr.interrupts_enabled = True
        cpu.run()
        assert cpu.csr.interrupts_enabled

    def test_sealed_non_sentry_jump_traps(self, bus, roots, data_cap):
        cpu = make_cpu(bus, roots, "jalr c0, s0\nhalt")
        sealed = data_cap.seal(roots.sealing.set_address(3))
        cpu.regs.write(8, sealed)
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_SEAL

    def test_sentry_posture_applied_during_callee(self, bus, roots):
        """The callee really runs with interrupts off under a disable

        sentry: observe the CSR from inside via csrr (callee's PCC has
        SR because it derives from the executable root)."""
        cpu = make_cpu(
            bus, roots,
            """
            cmove t0, c7
            csealentry t0, t0, disable
            jalr ra, t0
            halt
            func:
            csrr a0, mstatus_mie
            jalr c0, ra
            """,
        )
        func_cap = roots.executable.set_address(CODE_BASE + 4 * 4)
        cpu.regs.write(7, func_cap)
        cpu.run()
        assert cpu.regs.read_int(10) == 0  # interrupts were off inside
        assert cpu.csr.interrupts_enabled  # and back on after return


class TestFetchChecks:
    def test_pcc_without_ex_traps(self, bus, roots):
        cpu = make_cpu(bus, roots, "nop\nhalt")
        cpu.pcc = cpu.pcc.clear_perms(P.EX)
        with pytest.raises(Trap) as excinfo:
            cpu.step()
        assert excinfo.value.cause is TrapCause.CHERI_PERMISSION

    def test_pc_outside_program_traps(self, bus, roots):
        cpu = make_cpu(bus, roots, "j end\nend: halt")
        cpu.pc = CODE_BASE + 0x1000
        with pytest.raises(Trap):
            cpu.step()

    @pytest.mark.parametrize("call", ["step", "run"])
    def test_no_program_loaded(self, bus, call):
        cpu = CPU(bus, ExecutionMode.CHERIOT)
        with pytest.raises(RuntimeError, match="^no program loaded$"):
            getattr(cpu, call)()

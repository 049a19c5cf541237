"""Tests for the strict forward/backward sentry mode (paper footnote 4:

"Later revisions of CHERIoT will distinguish forward and backward
control-flow arcs")."""

import pytest

from repro.isa import CPU, ExecutionMode, Trap, TrapCause, assemble
from .conftest import CODE_BASE


def strict_cpu(bus, roots, source):
    cpu = CPU(bus, ExecutionMode.CHERIOT, cfi_strict=True)
    cpu.load_program(assemble(source), CODE_BASE, pcc=roots.executable)
    return cpu


class TestStrictCFI:
    def test_normal_call_return_still_works(self, bus, roots):
        cpu = strict_cpu(
            bus, roots,
            "jal ra, fn\nli a1, 2\nhalt\nfn: li a0, 1\nret",
        )
        cpu.run()
        assert cpu.regs.read_int(10) == 1 and cpu.regs.read_int(11) == 2

    def test_forward_sentry_call_works(self, bus, roots):
        cpu = strict_cpu(
            bus, roots,
            """
            cmove t0, c7
            csealentry t0, t0, inherit
            jalr ra, t0
            halt
            fn: jalr c0, ra
            """,
        )
        cpu.regs.write(7, roots.executable.set_address(CODE_BASE + 16))
        cpu.run()

    def test_return_through_forward_sentry_blocked(self, bus, roots):
        """A gadget `ret`ting through a stolen *function* sentry dies."""
        cpu = strict_cpu(
            bus, roots,
            """
            cmove ra, c7
            csealentry ra, ra, inherit   # ra now holds a FORWARD sentry
            ret                          # strict CFI: not a return arc
            target: halt
            """,
        )
        cpu.regs.write(7, roots.executable.set_address(CODE_BASE + 12))
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_SEAL
        assert "forward sentry" in excinfo.value.detail

    def test_call_through_return_sentry_blocked(self, bus, roots):
        """A gadget *calling* a stolen return sentry dies too."""
        cpu = strict_cpu(
            bus, roots,
            """
            cmove t0, c7
            csealentry t0, t0, ret_en    # t0 holds a RETURN sentry
            jalr ra, t0                  # strict CFI: not a call arc
            target: halt
            """,
        )
        cpu.regs.write(7, roots.executable.set_address(CODE_BASE + 12))
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.cause is TrapCause.CHERI_SEAL
        assert "return sentry" in excinfo.value.detail

    def test_legacy_mode_permits_mixed_arcs(self, bus, roots):
        """The paper's current revision does not distinguish arcs."""
        cpu = CPU(bus, ExecutionMode.CHERIOT, cfi_strict=False)
        cpu.load_program(
            assemble(
                "cmove ra, c7\ncsealentry ra, ra, inherit\nret\ntarget: halt"
            ),
            CODE_BASE,
            pcc=roots.executable,
        )
        cpu.regs.write(7, roots.executable.set_address(CODE_BASE + 12))
        cpu.run()  # allowed in the MICRO'23 revision

"""Tests for trap vectoring, mret, and interrupt delivery."""

import pytest

from repro.isa import ExecutionMode, Trap, TrapCause, assemble
from repro.pipeline import CoreKind, make_core_model
from tests.observed import SIDES, assert_observation_blind
from .conftest import CODE_BASE, make_cpu
from .test_block_cache import _fresh_cpu

HANDLER_SUFFIX = """
_handler:
    csrr a3, mcause
    addi a4, a4, 1                 # count handler entries
    cspecialrw t0, mepcc, c0
    cincaddrimm t0, t0, 4          # skip the faulting instruction
    cspecialrw c0, mepcc, t0
    mret
"""


def with_handler(bus, roots, body):
    cpu = make_cpu(bus, roots, body + HANDLER_SUFFIX, entry="_start")
    handler_index = cpu.program.entry("_handler")
    cpu.regs.write_scr(
        "mtcc", roots.executable.set_address(CODE_BASE + 4 * handler_index)
    )
    return cpu


class TestSynchronousVectoring:
    def test_fault_enters_handler_and_resumes(self, bus, roots):
        cpu = with_handler(
            bus, roots,
            """
            _start:
            li a0, 0
            lw a1, 0(a0)      # null dereference
            li a2, 7          # execution resumes here after mret
            halt
            """,
        )
        cpu.run()
        assert cpu.regs.read_int(14) == 1  # handler ran once
        assert cpu.regs.read_int(12) == 7  # and execution resumed
        assert cpu.csr.read("mcause") == TrapCause.CHERI_TAG.code
        assert cpu.last_trap.cause is TrapCause.CHERI_TAG

    def test_no_vector_installed_propagates(self, bus, roots):
        cpu = make_cpu(bus, roots, "li a0, 0\nlw a1, 0(a0)\nhalt")
        with pytest.raises(Trap):
            cpu.run()

    def test_vector_disables_interrupts_mret_restores(self, bus, roots):
        cpu = with_handler(
            bus, roots,
            """
            _start:
            li a0, 0
            lw a1, 0(a0)
            csrr a5, mstatus_mie    # after mret: interrupts back on
            halt
            """,
        )
        seen = []
        cpu.run()
        assert cpu.regs.read_int(15) == 1

    def test_mepc_holds_faulting_pc(self, bus, roots):
        cpu = with_handler(
            bus, roots,
            "_start:\nnop\nli a0, 0\nlw a1, 0(a0)\nhalt\n",
        )
        cpu.run()
        assert cpu.csr.read("mepc") == CODE_BASE + 8  # third instruction

    def test_rv32e_mode_never_vectors(self, bus, roots):
        cpu = make_cpu(bus, roots, "clc a0, 0(s0)\nhalt", mode=ExecutionMode.RV32E)
        with pytest.raises(Trap):
            cpu.run()


#: A loop whose ``ecall`` lets the host post an interrupt mid-loop, with
#: straight-line code after the ``ecall``; ``_irq`` counts entries in
#: a4, records the loop counter in a5 and resumes at ``mepcc``.
INTERRUPTED_LOOP = """
_start:
    {prologue}
    li a0, 6
loop:
    addi a0, a0, -1
    ecall
    addi a1, a1, 1
    addi a2, a2, 2
    bnez a0, loop
    halt
_irq:
    csrr a3, mcause
    addi a4, a4, 1
    mv a5, a0
    mret
"""


def _interrupted_loop(side, prologue=""):
    """Run the loop on ``side``; the ecall handler posts a machine-timer
    interrupt when the counter reaches 3."""
    program = assemble(INTERRUPTED_LOOP.format(prologue=prologue))
    cpu, roots = _fresh_cpu(side)
    cpu.load_program(program, CODE_BASE, pcc=roots.executable, entry="_start")
    irq = CODE_BASE + 4 * program.entry("_irq")
    cpu.regs.write_scr("mtcc", roots.executable.set_address(irq))

    def post(cpu):
        if cpu.regs.read_int(10) == 3:
            cpu.interrupt_pending = TrapCause.TIMER_INTERRUPT

    cpu.ecall_handler = post
    cpu.run()
    return cpu


class TestTimerInterrupts:
    """The host posts ``interrupt_pending`` (what a timer device does);
    fused and observed runs take it at the same instruction boundary."""

    def test_timer_preempts_loop(self):
        seen, cpus = {}, {}
        for side in SIDES:
            cpu = _interrupted_loop(side)
            seen[side] = (
                cpu.regs.read_int(14),  # handler entries
                cpu.regs.read_int(15),  # loop counter when taken
                cpu.csr.read("mcause"),
                cpu.csr.read("mepc"),
                cpu.stats.instructions,
                cpu.stats.traps,
                cpu.timing.cycles,
            )
            cpus[side] = [cpu]
        assert_observation_blind(seen, cpus)
        entries, counter, mcause, mepc, *_ = seen["observed"]
        assert (entries, counter) == (1, 3)
        assert mcause == TrapCause.TIMER_INTERRUPT.code
        # Taken at the boundary right after the posting ecall.
        assert mepc == CODE_BASE + 4 * 3

    def test_interrupts_disabled_holds_timer_off(self):
        seen, cpus = {}, {}
        for side in SIDES:
            cpu = _interrupted_loop(side, prologue="csrci mstatus_mie, 1")
            # The interrupt is posted, but the CPU never takes it:
            # posture wins.
            seen[side] = (
                cpu.regs.read_int(14),
                cpu.interrupt_pending,
                cpu.stats.instructions,
                cpu.timing.cycles,
            )
            cpus[side] = [cpu]
        assert_observation_blind(seen, cpus)
        assert seen["observed"][:2] == (0, TrapCause.TIMER_INTERRUPT)


class TestVectoringCost:
    def test_trap_entry_charges_redirect(self, bus, roots):
        core = make_core_model(CoreKind.IBEX)
        cpu = with_handler(bus, roots, "_start:\nli a0, 0\nlw a1, 0(a0)\nhalt\n")
        cpu.timing = core
        cpu.run()
        assert core.cycles > 0

"""Stack overflow: bounded stack capabilities make it a clean trap.

On CHERIoT the stack pointer is a capability bounded to the thread's
(chopped) stack, so runaway recursion faults deterministically at the
first out-of-bounds frame store — no guard pages, no MMU, no silent
corruption of whatever lies below the stack.  On rv32e the same
program marches straight into adjacent memory.
"""

import pytest

from repro.cc import ir
from repro.cc.lower import Target, compile_module
from repro.isa import CPU, ExecutionMode, Trap, TrapCause, assemble
from repro.memory import Region, SystemBus, TaggedMemory
from repro.workloads.coremark import boot

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2001_0000
STACK_BASE = 0x2001_8000
STACK_SIZE = 0x800  # deliberately small
CANARY_AT = STACK_BASE - 128  # an "adjacent concern" below the stack
CANARY_LEN = 128

V, C, B = ir.Var, ir.Const, ir.BinOp


def recursion_module():
    """f(n) = n ? f(n-1)+1 : 0 with a fat local array per frame."""
    module = ir.Module()
    fn = ir.Function(
        "f",
        params=[ir.Param("n", ir.INT)],
        locals={"r": ir.INT},
        arrays={"frame_pad": 64},
    )
    fn.body = [
        # Touch the pad so every frame really writes to the stack.
        ir.Store(ir.LocalArrayRef("frame_pad"), V("n")),
        ir.If(
            B("==", V("n"), C(0)),
            (ir.Return(C(0)),),
        ),
        ir.Assign("r", ir.CallExpr("f", (B("-", V("n"), C(1)),))),
        ir.Return(B("+", V("r"), C(1))),
    ]
    module.add_function(fn)
    return module


def booted(target, depth):
    """A CPU at the entry of ``f(depth)``, with the canary planted."""
    module = recursion_module()
    compiled = compile_module(module, target, data_base=DATA_BASE)
    program = assemble(
        compiled.assembly + f"_start:\nli a0, {depth}\njal ra, f\nhalt\n"
    )
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(CODE_BASE, 0x2_0000))
    bus.write_bytes(CANARY_AT, b"\xCC" * CANARY_LEN)
    cheriot = target is Target.CHERIOT
    cpu = CPU(bus, ExecutionMode.CHERIOT if cheriot else ExecutionMode.RV32E)
    boot(cpu, program, CODE_BASE, Region("stack", STACK_BASE, STACK_SIZE),
         Region("globals", DATA_BASE, 0x1000))
    return cpu, bus


def run(target, depth):
    cpu, bus = booted(target, depth)
    cpu.run(max_steps=2_000_000)
    return cpu, bus


class TestStackOverflow:
    def test_shallow_recursion_fine_on_both(self):
        for target in (Target.RV32E, Target.CHERIOT):
            cpu, _ = run(target, depth=5)
            assert cpu.regs.read_int(10) == 5

    def test_cheriot_overflow_is_a_clean_bounds_trap(self):
        with pytest.raises(Trap) as excinfo:
            run(Target.CHERIOT, depth=200)
        assert excinfo.value.cause in (
            TrapCause.CHERI_BOUNDS,
            TrapCause.CHERI_TAG,  # csp untagged once below base
        )

    def test_rv32e_overflow_tramples_adjacent_memory(self):
        """The vulnerability class: rv32e recursion walks through the

        canary below the stack without any fault at the point of
        damage."""
        cpu, bus = booted(Target.RV32E, depth=200)
        try:
            cpu.run(max_steps=2_000_000)
        except Trap:
            pass  # it may crash later — after the damage is done
        assert bus.read_bytes(CANARY_AT, CANARY_LEN) != b"\xCC" * CANARY_LEN

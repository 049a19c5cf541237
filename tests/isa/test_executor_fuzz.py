"""Property-based fuzzing of the executor.

The simulator must be *total*: any instruction sequence either executes,
raises an architectural :class:`Trap`, or halts — never a Python-level
error.  Random programs also cross-check the two execution modes on the
architectural integer subset (they must agree bit-for-bit).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import make_roots
from repro.isa import CPU, ExecutionMode, Halted, Trap, TrapCause, assemble
from repro.isa.instructions import Instruction
from repro.memory import SystemBus, TaggedMemory

CODE_BASE = 0x2000_0000

_REGS = ["zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
         "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5"]

_ALU_RR = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra",
           "slt", "sltu", "mul", "mulh", "mulhu", "div", "divu", "rem", "remu"]
_ALU_RI = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
_SHIFT_RI = ["slli", "srli", "srai"]

regs = st.sampled_from(_REGS)
imms = st.integers(min_value=-2048, max_value=2047)
shamts = st.integers(min_value=0, max_value=31)


@st.composite
def alu_line(draw):
    kind = draw(st.integers(min_value=0, max_value=3))
    rd, rs, rt = draw(regs), draw(regs), draw(regs)
    if kind == 0:
        return f"{draw(st.sampled_from(_ALU_RR))} {rd}, {rs}, {rt}"
    if kind == 1:
        return f"{draw(st.sampled_from(_ALU_RI))} {rd}, {rs}, {draw(imms)}"
    if kind == 2:
        return f"{draw(st.sampled_from(_SHIFT_RI))} {rd}, {rs}, {draw(shamts)}"
    return f"li {rd}, {draw(st.integers(min_value=0, max_value=0xFFFFFFFF))}"


@st.composite
def alu_program(draw):
    lines = draw(st.lists(alu_line(), min_size=1, max_size=40))
    return "\n".join(lines) + "\nhalt\n"


def _fresh_cpu(mode):
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
    return CPU(bus, mode)


class TestALUFuzz:
    @settings(max_examples=120, deadline=None)
    @given(alu_program())
    def test_modes_agree_on_integer_subset(self, source):
        program = assemble(source)
        results = []
        for mode in (ExecutionMode.RV32E, ExecutionMode.CHERIOT):
            cpu = _fresh_cpu(mode)
            if mode is ExecutionMode.CHERIOT:
                cpu.load_program(program, CODE_BASE, pcc=make_roots().executable)
            else:
                cpu.load_program(program, CODE_BASE)
            cpu.run()
            results.append([cpu.regs.read_int(i) for i in range(16)])
        assert results[0] == results[1]

    @settings(max_examples=120, deadline=None)
    @given(alu_program())
    def test_registers_stay_32_bit(self, source):
        cpu = _fresh_cpu(ExecutionMode.RV32E)
        cpu.load_program(assemble(source), CODE_BASE)
        cpu.run()
        for i in range(16):
            assert 0 <= cpu.regs.read_int(i) <= 0xFFFFFFFF


@st.composite
def chaotic_instruction(draw):
    """Any mnemonic with plausible-shaped but arbitrary operands."""
    from repro.isa.instructions import INSTRUCTION_SPECS

    mnemonic = draw(
        st.sampled_from(
            [m for m, s in INSTRUCTION_SPECS.items()
             if "label" not in s.signature and m != "halt"]
        )
    )
    spec = INSTRUCTION_SPECS[mnemonic]
    parts = []
    for kind in [k for k in spec.signature.split(",") if k]:
        if kind in ("rd", "rs", "rt"):
            parts.append(draw(regs))
        elif kind == "imm":
            parts.append(str(draw(st.integers(min_value=-4096, max_value=4096))))
        elif kind == "mem":
            parts.append(f"{draw(st.integers(min_value=-64, max_value=64))}({draw(regs)})")
        elif kind == "csr":
            parts.append(draw(st.sampled_from(
                ["mstatus_mie", "mcause", "mepc", "mshwm", "mshwmb", "mcycle", "bogus"]
            )))
        elif kind == "scr":
            parts.append(draw(st.sampled_from(["mtdc", "mepcc", "mscratchc"])))
        elif kind == "str":
            parts.append(draw(st.sampled_from(["inherit", "disable", "enable", "junk"])))
    return f"{mnemonic} {', '.join(parts)}".strip()


class TestChaosFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(chaotic_instruction(), min_size=1, max_size=15))
    def test_simulator_is_total(self, lines):
        """Arbitrary instruction soup: only Trap / Halted / clean run.

        CSRError (a model-API error for unknown CSR names) is accepted
        too — the assembler passes names through by design.
        """
        from repro.isa.csr import CSRError

        source = "\n".join(lines) + "\nhalt\n"
        try:
            program = assemble(source)
        except Exception:
            return  # assembler rejection is fine
        cpu = _fresh_cpu(ExecutionMode.CHERIOT)
        cpu.load_program(program, CODE_BASE, pcc=make_roots().executable)
        cpu.regs.write(8, make_roots().memory.set_address(CODE_BASE + 0x8000).set_bounds(256))
        try:
            cpu.run(max_steps=2000)
        except (Trap, Halted, CSRError, RuntimeError):
            pass


_WALK_OFF_SRAM = """
    li a0, 2000
loop:
    {access}
    cincaddrimm a1, a1, -1
    addi a0, a0, -1
    bnez a0, loop
    halt
"""


class TestUnmappedAccess:
    """A capability-valid access that no SRAM bank decodes is a bus
    error, delivered as a trap — found by the chaos fuzz above as
    ``auipcc ra, 0; lb zero, -1(ra)``, which raised a host exception.
    A loop walks the memory root down off the bottom of SRAM, hot
    enough for every execution tier to be running it when the access
    faults."""

    TIERS = {
        "interpreter": dict(predecode=False),
        "predecoded": dict(block_cache=False),
        "fused": dict(trace_jit=False),
        "jit": dict(),
    }

    @pytest.mark.parametrize("access", ["lb zero, 0(a1)", "sb zero, 0(a1)"])
    def test_every_tier_traps_at_the_same_point(self, access):
        program = assemble(_WALK_OFF_SRAM.format(access=access))
        outcomes = set()
        for tier, options in self.TIERS.items():
            bus = SystemBus()
            bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
            cpu = CPU(bus, ExecutionMode.CHERIOT, **options)
            cpu.load_program(program, CODE_BASE, pcc=make_roots().executable)
            cpu.regs.write(11, make_roots().memory.set_address(CODE_BASE + 512))
            with pytest.raises(Trap) as info:
                cpu.run(max_steps=100_000)
            assert info.value.cause is TrapCause.BUS_FAULT, tier
            outcomes.add((
                info.value.pc, cpu.regs.read_int(10),
                cpu.stats.instructions, cpu.stats.traps,
            ))
        assert len(outcomes) == 1, outcomes

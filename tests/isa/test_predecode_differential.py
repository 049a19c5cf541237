"""Differential golden-trace tests: pre-decoded vs interpretive stepping.

``CPU`` binds every instruction once at ``load_program`` time and
authorizes fetches against a cached PCC window.  ``cpu.step()`` never
fuses, so these tests drive it one instruction at a time and pin every
step to the interpretive reference (``_ReferenceCPU`` in
``test_executor_reference``: the handler table, and a full PCC
authorization per fetch): over randomized programs — ALU, memory,
branches, capability manipulation, traps — the two must produce an
*identical* architectural trace: same per-step PCs, same register file
(full capabilities, not just addresses), same traps, same
retired-instruction statistics, and same modelled cycles.
"""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import make_roots
from repro.isa import CPU, ExecutionMode, Halted, Trap, assemble
from repro.memory import SystemBus, TaggedMemory
from repro.pipeline import CoreKind, make_core_model

from .test_executor_reference import _ReferenceCPU

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2000_8000
DATA_SIZE = 0x100

_REGS = ["t0", "t1", "t2", "s1", "a0", "a1", "a2", "a3"]
_ALU_RR = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra",
           "slt", "sltu", "mul", "mulh", "mulhu", "div", "divu", "rem", "remu"]
_ALU_RI = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
_CAP_UN = ["cgetaddr", "cgetbase", "cgettop", "cgetlen", "cgetperm",
           "cgettag", "cgettype"]

regs = st.sampled_from(_REGS)
imms = st.integers(min_value=-2048, max_value=2047)
# Offsets deliberately straddle the data capability's bounds so some
# accesses trap — fault behaviour must match too.
mem_offsets = st.sampled_from([0, 4, 8, 64, DATA_SIZE - 4, DATA_SIZE, 0x7FC])


@st.composite
def body_line(draw, line_no, n_lines):
    kind = draw(st.integers(min_value=0, max_value=6))
    rd, rs, rt = draw(regs), draw(regs), draw(regs)
    if kind == 0:
        return f"{draw(st.sampled_from(_ALU_RR))} {rd}, {rs}, {rt}"
    if kind == 1:
        return f"{draw(st.sampled_from(_ALU_RI))} {rd}, {rs}, {draw(imms)}"
    if kind == 2:
        return f"li {rd}, {draw(st.integers(min_value=0, max_value=0xFFFFFFFF))}"
    if kind == 3:  # load/store through the data capability in s0
        op = draw(st.sampled_from(["lw", "sw", "lh", "lb", "lbu", "lhu", "sb"]))
        scale = {"lw": 4, "sw": 4, "lh": 2, "lhu": 2, "sh": 2}.get(op, 1)
        offset = draw(mem_offsets) // scale * scale
        return f"{op} {rd}, {offset}(s0)"
    if kind == 4:  # capability-width load/store
        op = draw(st.sampled_from(["clc", "csc"]))
        offset = draw(mem_offsets) // 8 * 8
        return f"{op} {rd}, {offset}(s0)"
    if kind == 5:  # capability manipulation
        which = draw(st.integers(min_value=0, max_value=2))
        if which == 0:
            return f"{draw(st.sampled_from(_CAP_UN))} {rd}, s0"
        if which == 1:
            return f"cincaddrimm {rd}, s0, {draw(imms)}"
        return f"csetaddr {rd}, s0, {rs}"
    # Forward-only branch: always to the terminating label, so every
    # generated program halts.
    return f"{draw(st.sampled_from(_BRANCHES))} {rs}, {rt}, done"


@st.composite
def mixed_program(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    lines = [draw(body_line(i, n)) for i in range(n)]
    return "\n".join(lines) + "\ndone: halt\n"


#: The interpretive reference and the pre-decoded CPU, in that order.
IMPLS = (_ReferenceCPU, CPU)


def _fresh_cpu(impl):
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
    roots = make_roots()
    cpu = impl(bus, ExecutionMode.CHERIOT)
    cpu.timing = make_core_model(CoreKind.IBEX)
    return cpu, roots


def _load(cpu, roots, program):
    cpu.load_program(program, CODE_BASE, pcc=roots.executable)
    # s0 holds a bounded data capability; some generated offsets
    # exceed its bounds on purpose.
    data = roots.memory.set_address(DATA_BASE).set_bounds(DATA_SIZE)
    cpu.regs.write(8, data)


def _golden_trace(cpu, max_steps=400):
    """Step until halt/trap/budget, recording every architectural event."""
    events = []
    for _ in range(max_steps):
        pc = cpu.pc
        try:
            cpu.step()
        except Halted:
            events.append(("halt", pc))
            break
        except Trap as trap:
            events.append(("trap", pc, trap.cause, trap.pc, str(trap)))
            break
        events.append(("step", pc, cpu.pc))
    return events


def _state(cpu):
    stats = tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats))
    return cpu.regs.snapshot(), stats, cpu.pc, cpu.timing.cycles


class TestPredecodeDifferential:
    @settings(max_examples=150, deadline=None)
    @given(mixed_program())
    def test_golden_trace_identical(self, source):
        program = assemble(source)
        traces, states = [], []
        for impl in IMPLS:
            cpu, roots = _fresh_cpu(impl)
            _load(cpu, roots, program)
            traces.append(_golden_trace(cpu))
            states.append(_state(cpu))
        assert traces[0] == traces[1]
        ref_regs, ref_stats, ref_pc, ref_cycles = states[0]
        new_regs, new_stats, new_pc, new_cycles = states[1]
        assert new_regs == ref_regs  # full capability equality, incl. tags
        assert new_stats == ref_stats
        assert new_pc == ref_pc
        assert new_cycles == ref_cycles

    def test_trap_vectoring_identical(self):
        # With a trap vector installed, a faulting access vectors into
        # the handler in both modes — and the fast path's fetch-window
        # cache must be invalidated by the PCC swap.
        source = """
            li a0, 42
            lw a1, 0x7FC(s0)
            li a0, 99
            halt
        handler:
            li a2, 7
            halt
        """
        program = assemble(source)
        traces, finals = [], []
        for impl in IMPLS:
            cpu, roots = _fresh_cpu(impl)
            _load(cpu, roots, program)
            handler_pc = CODE_BASE + 4 * program.entry("handler")
            cpu.regs.write_scr("mtcc", roots.executable.set_address(handler_pc))
            traces.append(_golden_trace(cpu))
            finals.append(_state(cpu))
        assert traces[0] == traces[1]
        assert traces[1][-1][0] == "halt"
        assert finals[0] == finals[1]
        # The handler actually ran: a2 == 7, and a0 kept its pre-fault value.
        regs = finals[1][0]
        assert regs[12].address == 7
        assert regs[10].address == 42

    def test_unvectored_trap_identical(self):
        source = "li a0, 1\nlw a1, 0x7FC(s0)\nhalt\n"
        program = assemble(source)
        results = []
        for impl in IMPLS:
            cpu, roots = _fresh_cpu(impl)
            _load(cpu, roots, program)
            events = _golden_trace(cpu)
            results.append((events, _state(cpu)))
        assert results[0] == results[1]
        assert results[1][0][-1][0] == "trap"

    def test_illegal_mnemonic_traps_identically(self):
        from repro.isa.assembler import Program
        from repro.isa.instructions import Instruction

        program = Program(
            instructions=(
                Instruction("addi", (10, 0, 5), text="addi a0, zero, 5"),
                Instruction("frobnicate", (), text="frobnicate"),
            ),
            labels={},
        )
        results = []
        for impl in IMPLS:
            cpu, roots = _fresh_cpu(impl)
            _load(cpu, roots, program)
            results.append(_golden_trace(cpu))
        assert results[0] == results[1]
        kind, _, cause, _, message = results[1][-1]
        assert kind == "trap"
        assert "frobnicate" in message

    def test_running_off_the_end_identical(self):
        program = assemble("li a0, 5\nnop\n")  # no halt
        results = []
        for impl in IMPLS:
            cpu, roots = _fresh_cpu(impl)
            _load(cpu, roots, program)
            results.append(_golden_trace(cpu))
        assert results[0] == results[1]
        assert results[1][-1][0] == "trap"

"""Differential tests: fused blocks vs single-stepping.

The superblock translation cache (:mod:`repro.isa.blockcache`) fuses
straight-line runs of pre-decoded instructions into one dispatch and
batch-charges their cycle costs.  Its correctness contract is strict
*observational equivalence*: run fused, every architectural
outcome — golden traces, register files, retired-instruction stats, bus
counters, modelled cycles, trap causes and messages, even the cycle
count an MMIO device reads mid-run — must be bit-identical to pure
single-stepping.  These tests pin that contract across the CoreMark
workalike (both cores, all configs), the assembly compartment switcher
(the machinery the allocation benchmark models), and randomized
programs, and pin a seeded fault-injection campaign slice to the
interpretive reference; plus the cache's own contract: programs are
structural, so a store into the code range keeps every cached block and
leaves both sides identical; the
cache deoptimizes under observers, keeps exact step budgets, and lets a
dropped CPU be freed by reference counting alone.

Every differential runs the same scenario on both sides of
:mod:`tests.observed` — unobserved, so ``run`` fuses, and under a no-op
observer, so it single-steps — and requires both to observe the same,
the fused side to have run fused blocks and the observed side none.
"""

import gc
import weakref
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import make_roots
from repro.isa import CPU, ExecutionMode, Trap, assemble
from repro.memory import SystemBus, TaggedMemory
from repro.pipeline import CoreKind, make_core_model
from tests.observed import (
    SIDES,
    assert_observation_blind,
    building,
    fused_blocks,
    on_side,
)

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2000_8000
DATA_SIZE = 0x100


def _fresh_cpu(side="fused"):
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
    roots = make_roots()
    cpu = on_side(side, CPU(bus, ExecutionMode.CHERIOT))
    cpu.timing = make_core_model(CoreKind.IBEX)
    return cpu, roots


def _load(cpu, roots, program):
    cpu.load_program(program, CODE_BASE, pcc=roots.executable)
    data = roots.memory.set_address(DATA_BASE).set_bounds(DATA_SIZE)
    cpu.regs.write(8, data)


def _state(cpu):
    """Full observable state: registers, stats, bus counters, cycles."""
    stats = tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats))
    bus_stats = tuple(
        getattr(cpu.bus.stats, f.name) for f in fields(cpu.bus.stats)
    )
    return cpu.regs.snapshot(), stats, bus_stats, cpu.pc, cpu.timing.cycles


def _run_all(source, max_steps=100_000):
    """Run one program on both sides; return (states, cpus), both keyed
    by side, ``cpus`` as lists."""
    program = assemble(source)
    states, cpus = {}, {}
    for side in SIDES:
        cpu, roots = _fresh_cpu(side)
        _load(cpu, roots, program)
        cpu.run(max_steps=max_steps)
        states[side] = _state(cpu)
        cpus[side] = [cpu]
    return states, cpus


class TestStraightLineEquivalence:
    def test_mem_loop_bit_identical(self):
        source = """
            li a0, 200
            li a1, 0
        loop:
            sw a1, 0(s0)
            lw a2, 0(s0)
            add a1, a1, a2
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        states, cpus = _run_all(source)
        assert_observation_blind(states, cpus)
        assert cpus["fused"][0].block_stats.instructions > 0

    def test_cap_ops_and_cap_memory_bit_identical(self):
        source = """
            li a0, 50
        loop:
            csc c8, 0(s0)
            clc c9, 0(s0)
            cgetlen a2, s1
            cincaddrimm s1, s0, 8
            csetaddr s1, s1, a2
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        states, cpus = _run_all(source)
        assert_observation_blind(states, cpus)

    def test_load_use_hazard_window_identical(self):
        # Back-to-back load/consume pairs at the block entry, interior,
        # and exit: the batch charge must reproduce every stall.
        source = """
            li a0, 40
        loop:
            lw a1, 0(s0)
            add a2, a1, a1
            lw a3, 4(s0)
            addi a0, a0, -1
            bnez a0, loop
            add a4, a3, a3
            halt
        """
        assert_observation_blind(*_run_all(source))

    def test_division_and_multiply_costs_identical(self):
        source = """
            li a0, 30
            li a1, 7
        loop:
            mul a2, a0, a1
            div a3, a2, a1
            rem a4, a2, a1
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        assert_observation_blind(*_run_all(source))

    def test_csr_read_loop_identical(self):
        # csrr is not fusable: it ends the cached run and goes through
        # the single-step path on every iteration, around fused blocks.
        source = """
            li a0, 30
        loop:
            csrr t1, mcycle
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        states, cpus = _run_all(source)
        assert_observation_blind(states, cpus)
        assert states["observed"][0][10].address == 0
        assert cpus["fused"][0].block_stats.single_steps > 0


class TestFaultEquivalence:
    def test_unvectored_mid_block_fault_identical(self):
        # The lw faults (out of s0's bounds) in the middle of a fused
        # run; the prefix must be accounted exactly and the Trap must
        # carry the same cause, pc and message.
        source = """
            li a0, 1
            li a1, 2
            lw a2, 0x7FC(s0)
            li a3, 4
            halt
        """
        program = assemble(source)
        outcomes, cpus = {}, {}
        for side in SIDES:
            cpu, roots = _fresh_cpu(side)
            _load(cpu, roots, program)
            with pytest.raises(Trap) as excinfo:
                cpu.run()
            trap = excinfo.value
            outcomes[side] = (trap.cause, trap.pc, str(trap), _state(cpu))
            cpus[side] = [cpu]
        assert_observation_blind(outcomes, cpus)

    def test_vectored_mid_block_fault_identical(self):
        source = """
            li a0, 42
            li a1, 1
            lw a2, 0x7FC(s0)
            li a0, 99
            halt
        handler:
            li a3, 7
            halt
        """
        program = assemble(source)
        states, cpus = {}, {}
        for side in SIDES:
            cpu, roots = _fresh_cpu(side)
            _load(cpu, roots, program)
            handler_pc = CODE_BASE + 4 * program.entry("handler")
            cpu.regs.write_scr("mtcc", roots.executable.set_address(handler_pc))
            cpu.run()
            states[side] = _state(cpu)
            cpus[side] = [cpu]
        assert_observation_blind(states, cpus)
        regs = states["observed"][0]
        assert regs[13].address == 7  # the handler ran
        assert regs[10].address == 42  # pre-fault value preserved

    def test_step_budget_boundary_identical(self):
        source = """
            li a0, 10
        loop:
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        program = assemble(source)
        cpu, roots = _fresh_cpu("observed")
        _load(cpu, roots, program)
        cpu.run()
        retired = cpu.stats.instructions

        # One step short must raise the same RuntimeError (message
        # includes pc and retired count — pinning exact accounting);
        # exactly enough must halt with identical stats.
        for budget, expect_halt in ((retired - 1, False), (retired, True)):
            outcomes, cpus = {}, {}
            for side in SIDES:
                cpu, roots = _fresh_cpu(side)
                _load(cpu, roots, program)
                try:
                    cpu.run(max_steps=budget)
                    outcomes[side] = ("halted", _state(cpu))
                except RuntimeError as exc:
                    outcomes[side] = ("exceeded", str(exc), _state(cpu))
                cpus[side] = [cpu]
            assert_observation_blind(outcomes, cpus)
            assert (outcomes["observed"][0] == "halted") is expect_halt

    def test_rv32e_capability_instruction_trap_identical(self):
        # The instruction table fuses capability mnemonics whatever the
        # mode; in RV32E they execute to an illegal-instruction trap,
        # which a fused block must raise as a single step does.
        program = assemble("li a0, 1\ncgetlen a1, s0\nhalt\n")
        outcomes, cpus = {}, {}
        for side in SIDES:
            bus = SystemBus()
            bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
            cpu = on_side(side, CPU(bus, ExecutionMode.RV32E))
            cpu.timing = make_core_model(CoreKind.IBEX)
            cpu.load_program(program, CODE_BASE)
            cpu.regs.write_int(8, DATA_BASE)
            with pytest.raises(Trap) as excinfo:
                cpu.run()
            trap = excinfo.value
            outcomes[side] = (trap.cause, trap.pc, str(trap), _state(cpu))
            cpus[side] = [cpu]
        assert_observation_blind(outcomes, cpus)
        message = outcomes["observed"][2]
        assert "capability instruction in RV32E mode" in message


class TestDeoptimization:
    def test_retire_hooks_force_single_stepping(self):
        # A retire hook sees one record per retired instruction — the
        # fused path never engages — and changes nothing the run does.
        source = """
            li a0, 20
        loop:
            sw a0, 0(s0)
            lw a1, 0(s0)
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        program = assemble(source)
        states, cpus = {}, {}
        stream = []
        for side in SIDES:
            # The retire hook is the observed side's only observer.
            cpu, roots = _fresh_cpu()
            _load(cpu, roots, program)
            if side == "observed":
                cpu.add_retire_hook(
                    lambda instr, info: stream.append((
                        info.pc, instr.mnemonic, instr.timing_class,
                        info.branch_taken,
                    ))
                )
            cpu.run()
            states[side] = _state(cpu)
            cpus[side] = [cpu]
        assert_observation_blind(states, cpus)
        # ``halt`` counts itself but reaches no hook.
        assert len(stream) == cpus["observed"][0].stats.instructions - 1
        assert stream[0][0] == CODE_BASE
        assert any(taken for *_, taken in stream)

    def test_pre_step_hook_forces_single_stepping(self):
        source = "li a0, 5\nloop:\naddi a0, a0, -1\nbnez a0, loop\nhalt\n"
        program = assemble(source)
        cpu, roots = _fresh_cpu()
        _load(cpu, roots, program)
        seen = []
        cpu.pre_step_hook = lambda c: seen.append(c.pc)
        cpu.run()
        assert cpu.block_stats.executions == 0
        # The hook saw every step, in order.
        assert len(seen) == cpu.stats.instructions

    def test_block_cache_disabled_never_fuses(self):
        source = "li a0, 5\nloop:\naddi a0, a0, -1\nbnez a0, loop\nhalt\n"
        cpu, roots = _fresh_cpu("observed")
        _load(cpu, roots, assemble(source))
        cpu.run()
        assert cpu.block_stats.executions == 0
        assert cpu.block_stats.translations == 0


def _translated_once(cpu) -> bool:
    """Every block in the cache was translated exactly once."""
    cached = sum(block is not None for block in cpu._blocks.values())
    return cpu.block_stats.translations == cached


class TestCodeRangeStores:
    """Programs are structural: a store into the code range changes no
    instruction, so the cache keeps every block and the fused run stays
    identical to the observed one."""

    SOURCE = """
        li t0, 3
    loop1:
        addi t0, t0, -1
        bnez t0, loop1
        halt
    """

    def test_code_range_store_keeps_cached_blocks(self):
        cpu, roots = _fresh_cpu()
        _load(cpu, roots, assemble(self.SOURCE))
        cpu.run()
        assert cpu.block_stats.executions > 0
        translations = cpu.block_stats.translations
        first = (cpu.regs.snapshot(), cpu.pc, cpu.stats.instructions,
                 cpu.timing.cycles)

        cpu.bus.write_word(CODE_BASE + 4, 0x0000_0013)
        cpu.pc = CODE_BASE
        cpu.run()
        # No block was re-translated, and the re-run retired the same
        # instructions and cycles into the same registers.
        assert cpu.block_stats.translations == translations
        again = (cpu.regs.snapshot(), cpu.pc,
                 cpu.stats.instructions - first[2],
                 cpu.timing.cycles - first[3])
        assert again == first

    def test_in_program_store_to_code_is_tier_blind(self):
        # The program itself stores into its own code range mid-run.
        source = """
            li t0, 3
        loop1:
            addi t0, t0, -1
            bnez t0, loop1
            bnez a2, done
            li a2, 1
            sw a3, 4(s1)
            li t0, 3
            j loop1
        done:
            halt
        """
        program = assemble(source)
        states, cpus = {}, {}
        for side in SIDES:
            cpu, roots = _fresh_cpu(side)
            _load(cpu, roots, program)
            # s1: write authority over the code region (loop1's range).
            cpu.regs.write(
                9, roots.memory.set_address(CODE_BASE).set_bounds(0x100)
            )
            cpu.run()
            states[side] = _state(cpu)
            cpus[side] = [cpu]
        assert_observation_blind(states, cpus)
        assert _translated_once(cpus["fused"][0])

    @settings(max_examples=25, deadline=None)
    @given(
        loops=st.integers(min_value=3, max_value=40),
        victim_word=st.integers(min_value=0, max_value=2),
        value=st.integers(min_value=0, max_value=0xFFFF_FFFF),
    )
    def test_loop_store_into_successor_is_tier_blind(
        self, loops, victim_word, value
    ):
        # A hot self-loop (one fused block chained back to itself)
        # stores into the block that runs after it.  Two rounds: round 1
        # caches the successor at label succ, round 2 stores into it
        # again while it is cached.
        source = f"""
            li a5, 2
            li a3, {value}
        round:
            li t0, {loops}
        loop1:
            sw a3, 0(s1)
            addi t0, t0, -1
            bnez t0, loop1
        succ:
            li a1, 11
            addi a1, a1, 3
            add a2, a1, a1
            addi a5, a5, -1
            bnez a5, round
            halt
        """
        program = assemble(source)
        succ_pc = CODE_BASE + 4 * program.entry("succ")
        states, cpus = {}, {}
        for side in SIDES:
            cpu, roots = _fresh_cpu(side)
            _load(cpu, roots, program)
            # s1: write authority aimed at the victim word of succ.
            cpu.regs.write(
                9,
                roots.memory.set_address(succ_pc + 4 * victim_word)
                .set_bounds(4),
            )
            cpu.run()
            states[side] = _state(cpu)
            cpus[side] = [cpu]
        assert_observation_blind(states, cpus)
        assert _translated_once(cpus["fused"][0])

    @settings(max_examples=25, deadline=None)
    @given(
        loops=st.integers(min_value=3, max_value=30),
        value=st.integers(min_value=0, max_value=0xFFFF_FFFF),
    )
    def test_chained_block_stores_are_tier_blind(self, loops, value):
        # Two blocks chained by ``j`` terminators: A stores into B's
        # range every round while the executor's chained dispatch
        # alternates A -> B -> A.
        source = f"""
            li t0, {loops}
            li a3, {value}
        blockA:
            sw a3, 0(s1)
            addi t0, t0, -1
            beqz t0, done
            j blockB
        blockB:
            addi a2, a2, 1
            j blockA
        done:
            li a1, 5
            halt
        """
        program = assemble(source)
        victim_pc = CODE_BASE + 4 * program.entry("blockB")
        states, cpus = {}, {}
        for side in SIDES:
            cpu, roots = _fresh_cpu(side)
            _load(cpu, roots, program)
            cpu.regs.write(
                9, roots.memory.set_address(victim_pc).set_bounds(4)
            )
            cpu.run()
            states[side] = _state(cpu)
            cpus[side] = [cpu]
        assert_observation_blind(states, cpus)
        assert _translated_once(cpus["fused"][0])


class TestRefcountFreeing:
    """A dropped CPU is freed by reference counting: nothing it wires up
    closes a cycle back to it or its bus."""

    SOURCE = """
        li a0, 20
    loop:
        sw a0, 0(s0)
        addi a0, a0, -1
        bnez a0, loop
        halt
    """

    @pytest.fixture(autouse=True)
    def no_cyclic_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def test_fused_cpu_and_bus_freed_without_the_collector(self):
        cpu, roots = _fresh_cpu()
        _load(cpu, roots, assemble(self.SOURCE))
        cpu.run()
        assert cpu.block_stats.executions > 0
        assert cpu.bus.stats.data_writes == 20
        refs = (weakref.ref(cpu), weakref.ref(cpu.bus))
        del cpu, roots
        assert [ref() for ref in refs] == [None, None]

    def test_system_cpu_freed_without_the_collector(self):
        from repro.machine import System

        system = System.build()
        code = system.memory_map.code.base
        roots = make_roots()
        cpu = system.make_cpu()
        cpu.load_program(assemble(self.SOURCE), code, pcc=roots.executable)
        cpu.regs.write(
            8, roots.memory.set_address(code + 0x800).set_bounds(DATA_SIZE)
        )
        cpu.run()
        assert cpu.block_stats.executions > 0
        ref = weakref.ref(cpu)
        del cpu
        assert ref() is None


class _CycleCounter:
    """An MMIO device whose every read returns the core's cycle count
    (the ``mtime`` of a CLINT timer)."""

    def __init__(self, core_model):
        self.core_model = core_model

    def mmio_read(self, offset: int) -> int:
        return self.core_model.cycles & 0xFFFFFFFF

    def mmio_write(self, offset: int, value: int) -> None:
        pass


class TestMMIOCycleExactness:
    def test_mtime_reads_mid_block_identical(self):
        # A fused block that loads a cycle counter must observe the
        # same cycle counts single-stepping would: the executor streams
        # cycle charges ahead of every memory operation.
        source = """
            li a0, 6
            li a2, 0
        loop:
            lw a1, 0(s0)
            add a2, a2, a1
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        program = assemble(source)
        device_base = 0x4000_0000
        seen, cpus = {}, {}
        for side in SIDES:
            bus = SystemBus()
            bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
            core_model = make_core_model(CoreKind.IBEX)
            bus.attach_device(device_base, 0x100, _CycleCounter(core_model))
            cpu = on_side(side, CPU(bus, ExecutionMode.RV32E))
            cpu.timing = core_model
            cpu.load_program(program, CODE_BASE)
            cpu.regs.write_int(8, device_base)
            cpu.run()
            seen[side] = (
                cpu.regs.read_int(12),
                tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats)),
                core_model.cycles,
                bus.stats.mmio_reads,
            )
            cpus[side] = [cpu]
        assert_observation_blind(seen, cpus)
        assert seen["observed"][0] > 0  # the count advanced during the run


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("core", [CoreKind.FLUTE, CoreKind.IBEX])
    @pytest.mark.parametrize(
        "config", ["rv32e", "cheriot", "cheriot+filter"]
    )
    def test_coremark_bit_identical(self, core, config, monkeypatch):
        from repro.workloads import coremark

        real_cpu = coremark.CPU
        outcomes, cpus = {}, {}
        for side in SIDES:
            cpus[side] = []
            monkeypatch.setattr(
                coremark, "CPU", building(real_cpu, side, cpus[side])
            )
            result = coremark.run_coremark(core, config, iterations=1)
            outcomes[side] = (result.cycles, result.instructions, result.crc)
        assert_observation_blind(outcomes, cpus)

    def test_asm_switcher_bit_identical(self):
        # The assembly compartment switcher: sentries, trusted-stack
        # manipulation, stack zeroing, CSR access — the machinery the
        # allocation benchmark's cross-compartment calls model.
        from repro.rtos.asm_switcher import CALLEE_ASM, CALLER_ASM, build_image

        states, cpus = {}, {}
        for side in SIDES:
            cpu = on_side(side, build_image(CALLEE_ASM, CALLER_ASM).cpu)
            cpu.run()
            states[side] = _state_no_timing(cpu)
            cpus[side] = [cpu]
        assert_observation_blind(states, cpus)
        regs, stats = states["observed"][:2]
        assert stats[0] > 50  # the full call/return path ran
        assert regs[10].address == 42  # callee's result in a0

    def test_fleet_kernel_bit_identical(self):
        # The fleet device's CPU kernel: a device's report numbers must
        # not depend on whether its kernel ran fused.
        from repro.fleet.device import _KERNEL_SOURCE

        source = _KERNEL_SOURCE.format(
            iters=100, buf_top=DATA_BASE + DATA_SIZE, buf_size=DATA_SIZE
        )
        assert_observation_blind(*_run_all(source))

    def test_fault_campaign_slice_bit_identical(self, monkeypatch):
        # 1000 seeded injections: every scenario, outcome, detail and
        # wrong-result flag must match the interpretive reference's.
        # The campaign's only CPU runs under its injection hook, an
        # observer, so both sides single-step: no fused-against-observed
        # pair exists here.
        from repro.faultinject import engine as engine_mod
        from repro.faultinject.campaign import run_campaign

        from .test_executor_reference import _ReferenceCPU

        records, cpus = {}, {}
        for name, factory in (("cpu", CPU), ("reference", _ReferenceCPU)):
            cpus[name] = []
            monkeypatch.setattr(
                engine_mod, "CPU", building(factory, "fused", cpus[name])
            )
            records[name] = run_campaign(1000).records
        assert records["cpu"] == records["reference"]
        assert sum(cpu.stats.instructions for cpu in cpus["cpu"]) > 0
        assert fused_blocks(cpus["cpu"] + cpus["reference"]) == 0


def _state_no_timing(cpu):
    stats = tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats))
    bus_stats = tuple(
        getattr(cpu.bus.stats, f.name) for f in fields(cpu.bus.stats)
    )
    return cpu.regs.snapshot(), stats, bus_stats, cpu.pc


_REGS = ["t0", "t1", "t2", "s1", "a0", "a1", "a2", "a3"]
_ALU_RR = ["add", "sub", "and", "or", "xor", "sll", "srl", "mul", "div"]
_ALU_RI = ["addi", "andi", "ori", "xori", "slti"]

regs = st.sampled_from(_REGS)
imms = st.integers(min_value=-2048, max_value=2047)
mem_offsets = st.sampled_from([0, 4, 8, 64, DATA_SIZE - 4, DATA_SIZE])


@st.composite
def body_line(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    rd, rs, rt = draw(regs), draw(regs), draw(regs)
    if kind == 0:
        return f"{draw(st.sampled_from(_ALU_RR))} {rd}, {rs}, {rt}"
    if kind == 1:
        return f"{draw(st.sampled_from(_ALU_RI))} {rd}, {rs}, {draw(imms)}"
    if kind == 2:
        op = draw(st.sampled_from(["lw", "sw", "lb", "sb"]))
        scale = 4 if op in ("lw", "sw") else 1
        offset = draw(mem_offsets) // scale * scale
        return f"{op} {rd}, {offset}(s0)"
    if kind == 3:
        op = draw(st.sampled_from(["clc", "csc"]))
        offset = draw(mem_offsets) // 8 * 8
        return f"{op} {rd}, {offset}(s0)"
    return f"bne {rs}, {rt}, done"


@st.composite
def mixed_program(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    lines = [draw(body_line()) for _ in range(n)]
    return "\n".join(lines) + "\ndone: halt\n"


class TestRandomizedEquivalence:
    def test_run_outcome_identical(self):
        # Unlike the predecode differential (which single-steps), this
        # drives cpu.run() so fused blocks, mid-block faults and the
        # fall-back paths all engage.  A generated program need not
        # fuse, so the fused side must have fused over all of them.
        fused = []

        @settings(max_examples=60, deadline=None)
        @given(mixed_program())
        def check(source):
            program = assemble(source)
            outcomes, cpus = {}, {}
            for side in SIDES:
                cpu, roots = _fresh_cpu(side)
                _load(cpu, roots, program)
                try:
                    cpu.run(max_steps=500)
                    outcomes[side] = ("halted", _state(cpu))
                except Trap as trap:
                    outcomes[side] = (
                        "trap", trap.cause, trap.pc, str(trap), _state(cpu)
                    )
                except RuntimeError as exc:
                    outcomes[side] = ("exceeded", str(exc), _state(cpu))
                cpus[side] = [cpu]
            assert outcomes["observed"] == outcomes["fused"]
            assert fused_blocks(cpus["observed"]) == 0
            fused.append(fused_blocks(cpus["fused"]))

        check()
        assert sum(fused) > 0

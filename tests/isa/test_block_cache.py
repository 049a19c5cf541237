"""Differential tests: the tiered executors vs single-stepping.

The superblock translation cache (:mod:`repro.isa.blockcache`) fuses
straight-line runs of pre-decoded instructions into one dispatch and
batch-charges their cycle costs.  Its correctness contract is strict
*observational equivalence*: with any tier enabled, every architectural
outcome — golden traces, register files, retired-instruction stats, bus
counters, modelled cycles, trap causes and messages, even the cycle
count an MMIO device reads mid-run — must be bit-identical to pure
single-stepping.  These tests pin that contract across the CoreMark
workalike (both cores, all configs), the assembly compartment switcher
(the machinery the allocation benchmark models), a seeded
fault-injection campaign slice, and randomized programs; plus the
cache-management machinery itself (invalidation on code-region stores,
chained-block invalidation under self-modifying code, deoptimization
under observers, exact step budgets).

Every differential runs the same scenario once per :class:`Tier` —
interpreter, pre-decoded single step, fused blocks — and requires what
every tier observed to equal what the interpreter observed.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import make_roots
from repro.isa import (
    CPU,
    BlockCacheStats,
    ExecutionMode,
    Halted,
    Tier,
    Trap,
    assemble,
)
from repro.isa.timer import ClintTimer
from repro.isa.trace import ExecutionTrace
from repro.memory import SystemBus, TaggedMemory
from repro.pipeline import CoreKind, make_core_model

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2000_8000
DATA_SIZE = 0x100


def _fresh_cpu(tier):
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
    roots = make_roots()
    cpu = CPU(bus, ExecutionMode.CHERIOT, tier=tier)
    cpu.timing = make_core_model(CoreKind.IBEX)
    return cpu, roots


def _assert_tier_blind(by_tier):
    """Every tier observed what the interpreter did; name the first
    tier that did not."""
    for tier, seen in by_tier.items():
        assert seen == by_tier[Tier.INTERP], f"{tier.name} diverged"


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
    timing = cpu.timing
    cycles = (timing.cycles, timing.stats.stall_cycles, timing.stats.bus_beats)
    return cpu.regs.snapshot(), stats, bus_stats, cpu.pc, cycles


def _run_all(source, max_steps=100_000):
    """Run one program under every tier; return (states, cpus), both
    keyed by :class:`Tier`."""
    program = assemble(source)
    states, cpus = {}, {}
    for tier in Tier:
        cpu, roots = _fresh_cpu(tier)
        _load(cpu, roots, program)
        cpu.run(max_steps=max_steps)
        states[tier] = _state(cpu)
        cpus[tier] = cpu
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
        _assert_tier_blind(states)
        # Each tier actually ran (this is not a vacuous pass).
        assert cpus[Tier.FUSED].block_stats.executions > 0
        assert cpus[Tier.FUSED].block_stats.instructions > 0

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
        _assert_tier_blind(states)
        assert cpus[Tier.FUSED].block_stats.executions > 0

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
        states, _ = _run_all(source)
        _assert_tier_blind(states)

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
        states, _ = _run_all(source)
        _assert_tier_blind(states)

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
        _assert_tier_blind(states)
        assert states[Tier.INTERP][0][10].address == 0
        assert cpus[Tier.FUSED].block_stats.executions > 0
        assert cpus[Tier.FUSED].block_stats.single_steps > 0


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
        outcomes = {}
        for tier in Tier:
            cpu, roots = _fresh_cpu(tier)
            _load(cpu, roots, program)
            with pytest.raises(Trap) as excinfo:
                cpu.run()
            trap = excinfo.value
            outcomes[tier] = (trap.cause, trap.pc, str(trap), _state(cpu))
        _assert_tier_blind(outcomes)

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
        states = {}
        for tier in Tier:
            cpu, roots = _fresh_cpu(tier)
            _load(cpu, roots, program)
            handler_pc = CODE_BASE + 4 * program.entry("handler")
            cpu.regs.write_scr("mtcc", roots.executable.set_address(handler_pc))
            cpu.run()
            states[tier] = _state(cpu)
        _assert_tier_blind(states)
        regs = states[Tier.INTERP][0]
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
        cpu, roots = _fresh_cpu(Tier.INTERP)
        _load(cpu, roots, program)
        cpu.run()
        retired = cpu.stats.instructions

        # One step short must raise the same RuntimeError (message
        # includes pc and retired count — pinning exact accounting);
        # exactly enough must halt with identical stats.
        for budget, expect_halt in ((retired - 1, False), (retired, True)):
            outcomes = {}
            for tier in Tier:
                cpu, roots = _fresh_cpu(tier)
                _load(cpu, roots, program)
                try:
                    cpu.run(max_steps=budget)
                    outcomes[tier] = ("halted", _state(cpu))
                except RuntimeError as exc:
                    outcomes[tier] = ("exceeded", str(exc), _state(cpu))
            _assert_tier_blind(outcomes)
            assert (outcomes[Tier.INTERP][0] == "halted") is expect_halt

    def test_rv32e_capability_instruction_trap_identical(self):
        # The instruction table fuses capability mnemonics whatever the
        # mode; in RV32E they execute to an illegal-instruction trap,
        # which every tier must raise identically from inside a block.
        program = assemble("li a0, 1\ncgetlen a1, s0\nhalt\n")
        outcomes = {}
        for tier in Tier:
            bus = SystemBus()
            bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
            cpu = CPU(bus, ExecutionMode.RV32E, tier=tier)
            cpu.timing = make_core_model(CoreKind.IBEX)
            cpu.load_program(program, CODE_BASE)
            cpu.regs.write_int(8, DATA_BASE)
            with pytest.raises(Trap) as excinfo:
                cpu.run()
            trap = excinfo.value
            outcomes[tier] = (trap.cause, trap.pc, str(trap), _state(cpu))
        _assert_tier_blind(outcomes)
        message = outcomes[Tier.INTERP][2]
        assert "capability instruction in RV32E mode" in message


class TestDeoptimization:
    def test_retire_hooks_force_single_stepping(self):
        # An attached trace (retire hook) must see the identical
        # per-instruction stream — the fused path never engages.
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
        traces, states = {}, {}
        for tier in Tier:
            cpu, roots = _fresh_cpu(tier)
            _load(cpu, roots, program)
            trace = ExecutionTrace(code_base=CODE_BASE).attach(cpu)
            cpu.run()
            traces[tier] = trace.entries
            states[tier] = _state(cpu)
            assert cpu.block_stats.executions == 0
        _assert_tier_blind(traces)
        _assert_tier_blind(states)

    def test_pre_step_hook_forces_single_stepping(self):
        source = "li a0, 5\nloop:\naddi a0, a0, -1\nbnez a0, loop\nhalt\n"
        program = assemble(source)
        cpu, roots = _fresh_cpu(Tier.FUSED)
        _load(cpu, roots, program)
        seen = []
        cpu.pre_step_hook = lambda c: seen.append(c.pc)
        cpu.run()
        assert cpu.block_stats.executions == 0
        # The hook saw every step, in order.
        assert len(seen) == cpu.stats.instructions

    def test_block_cache_disabled_never_fuses(self):
        source = "li a0, 5\nloop:\naddi a0, a0, -1\nbnez a0, loop\nhalt\n"
        program = assemble(source)
        for tier in (Tier.INTERP, Tier.STEP):
            cpu, roots = _fresh_cpu(tier)
            _load(cpu, roots, program)
            cpu.run()
            assert cpu.block_stats.executions == 0
            assert cpu.block_stats.translations == 0


class TestInvalidation:
    SOURCE = """
        li t0, 3
    loop1:
        addi t0, t0, -1
        bnez t0, loop1
        halt
    """

    def test_store_into_code_region_invalidates_and_retranslates(self):
        program = assemble(self.SOURCE)
        cpu, roots = _fresh_cpu(Tier.FUSED)
        _load(cpu, roots, program)
        cpu.run()
        assert cpu.block_stats.executions > 0
        translations_before = cpu.block_stats.translations
        assert cpu.block_stats.invalidations == 0

        # A write into the cached code range must drop the overlapping
        # blocks...
        cpu.bus.write_word(CODE_BASE + 4, 0x0000_0013)
        assert cpu.block_stats.invalidations >= 1

        # ...and re-execution must re-translate, not reuse stale blocks.
        cpu.pc = CODE_BASE
        cpu.run()
        assert cpu.block_stats.translations > translations_before

    def test_in_program_store_to_code_invalidates(self):
        # The program itself stores into its own code range mid-run —
        # the architectural results must still match single-stepping,
        # and the cached run must notice the dirty range.
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
        states, counters = {}, {}
        for tier in Tier:
            cpu, roots = _fresh_cpu(tier)
            _load(cpu, roots, program)
            # s1: write authority over the code region (loop1's range).
            cpu.regs.write(
                9, roots.memory.set_address(CODE_BASE).set_bounds(0x100)
            )
            cpu.run()
            states[tier] = _state(cpu)
            counters[tier] = cpu.block_stats.invalidations
        _assert_tier_blind(states)
        # The cached run saw the dirty store.
        assert counters[Tier.FUSED] >= 1

    def test_store_outside_code_region_does_not_invalidate(self):
        source = """
            li t0, 3
        loop1:
            sw t0, 0(s0)
            addi t0, t0, -1
            bnez t0, loop1
            halt
        """
        program = assemble(source)
        cpu, roots = _fresh_cpu(Tier.FUSED)
        _load(cpu, roots, program)
        cpu.run()
        assert cpu.block_stats.executions > 0
        assert cpu.block_stats.invalidations == 0


class TestSuccessorBlockInvalidation:
    """Self-modifying code rewriting a *successor* block while its
    predecessor is mid-loop.

    The predecessor is a hot self-loop (one fused block chained back to
    itself) whose body stores into the code range of the block that
    executes after the loop exits.  The dirty-range hooks must drop the
    successor's translation on every such store — while the
    predecessor keeps looping — and the architectural outcome must
    stay bit-identical to single-stepping.
    The decoded program image is fixed at load time (the simulator's
    predecode contract), so the observable effects are the bus/stat
    stream and the invalidation counters, not new instruction bytes.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        loops=st.integers(min_value=3, max_value=40),
        victim_word=st.integers(min_value=0, max_value=2),
        value=st.integers(min_value=0, max_value=0xFFFF_FFFF),
    )
    def test_trace_loop_rewrites_successor(self, loops, victim_word, value):
        # Two rounds: round 1 executes (and caches) the successor block
        # at label succ; in round 2 loop1's fused store drops succ's
        # translation mid-loop.  The store hits the victim word inside
        # succ.
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
        states, counters = {}, {}
        for tier in Tier:
            cpu, roots = _fresh_cpu(tier)
            _load(cpu, roots, program)
            # s1: write authority aimed at the victim word of succ.
            cpu.regs.write(
                9,
                roots.memory.set_address(succ_pc + 4 * victim_word)
                .set_bounds(4),
            )
            cpu.run()
            states[tier] = _state(cpu)
            counters[tier] = cpu.block_stats.invalidations
        _assert_tier_blind(states)
        # The cached tier saw the successor's range go dirty.
        assert counters[Tier.FUSED] >= 1

    @settings(max_examples=25, deadline=None)
    @given(
        loops=st.integers(min_value=3, max_value=30),
        value=st.integers(min_value=0, max_value=0xFFFF_FFFF),
    )
    def test_chained_blocks_rewrite_each_other(self, loops, value):
        # Two blocks chained by ``j`` terminators: A stores into B's
        # range every round while the executor's chained dispatch
        # alternates A -> B -> A.  B must be dropped and re-translated
        # every round.
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
        states, counters = {}, {}
        for tier in Tier:
            cpu, roots = _fresh_cpu(tier)
            _load(cpu, roots, program)
            cpu.regs.write(
                9, roots.memory.set_address(victim_pc).set_bounds(4)
            )
            cpu.run()
            states[tier] = _state(cpu)
            counters[tier] = cpu.block_stats.invalidations
        _assert_tier_blind(states)
        # Every store dropped the successor: one invalidation per round.
        assert counters[Tier.FUSED] >= loops - 1


class TestSystemCounters:
    def test_make_cpu_shares_the_system_block_cache_stats(self):
        # Every hart a System builds counts into one registry group.
        from repro.machine import System

        system = System.build()
        summary = system.stats_summary()
        assert set(summary["block_cache"]) == {
            f.name for f in fields(BlockCacheStats)
        }
        for tier in Tier:
            cpu = system.make_cpu(tier=tier)
            assert cpu.tier is tier
            assert cpu.block_stats is system.block_cache_stats


class TestMMIOCycleExactness:
    def test_mtime_reads_mid_block_identical(self):
        # A fused block that loads the CLINT's mtime must observe the
        # same cycle counts single-stepping would: the executor streams
        # cycle charges ahead of every memory operation.
        source = """
            li a0, 6
            li a2, 0
        loop:
            lw a1, 4(s0)
            add a2, a2, a1
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        program = assemble(source)
        timer_base = 0x4000_0000
        sums, states = {}, {}
        for tier in Tier:
            bus = SystemBus()
            bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
            core_model = make_core_model(CoreKind.IBEX)
            bus.attach_device(timer_base, 0x100, ClintTimer(core_model))
            cpu = CPU(bus, ExecutionMode.RV32E, tier=tier)
            cpu.timing = core_model
            cpu.load_program(program, CODE_BASE)
            cpu.regs.write_int(8, timer_base)
            cpu.run()
            sums[tier] = cpu.regs.read_int(12)
            states[tier] = (
                tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats)),
                core_model.cycles,
                bus.stats.mmio_reads,
            )
            if tier is Tier.FUSED:
                assert cpu.block_stats.executions > 0
        _assert_tier_blind(sums)
        _assert_tier_blind(states)
        assert sums[Tier.INTERP] > 0  # mtime actually advanced during the run


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("core", [CoreKind.FLUTE, CoreKind.IBEX])
    @pytest.mark.parametrize(
        "config", ["rv32e", "cheriot", "cheriot+filter"]
    )
    def test_coremark_bit_identical(self, core, config):
        from repro.workloads.coremark import run_coremark

        outcomes = {}
        for tier in Tier:
            result = run_coremark(core, config, iterations=1, tier=tier)
            outcomes[tier] = (result.cycles, result.instructions, result.crc)
        _assert_tier_blind(outcomes)

    def test_asm_switcher_bit_identical(self):
        # The assembly compartment switcher: sentries, trusted-stack
        # manipulation, stack zeroing, CSR access — the machinery the
        # allocation benchmark's cross-compartment calls model.
        from repro.rtos.asm_switcher import build_image

        from tests.integration.test_asm_switcher import CALLEE, CALLER

        states = {}
        for tier in Tier:
            image = build_image(CALLEE, CALLER, tier=tier)
            image.cpu.run()
            states[tier] = _state_no_timing(image.cpu)
        _assert_tier_blind(states)
        regs, stats = states[Tier.INTERP][:2]
        assert stats[0] > 50  # the full call/return path ran
        assert regs[10].address == 42  # callee's result in a0

    def test_fleet_kernel_bit_identical(self):
        # The fleet device's CPU kernel: a device's report numbers must
        # not depend on the tier its kernel ran at.
        from repro.fleet.device import _KERNEL_SOURCE

        source = _KERNEL_SOURCE.format(
            iters=100, buf_top=DATA_BASE + DATA_SIZE, buf_size=DATA_SIZE
        )
        states, cpus = _run_all(source)
        _assert_tier_blind(states)
        assert cpus[Tier.FUSED].block_stats.executions > 0

    def test_fault_campaign_slice_bit_identical(self, monkeypatch):
        # 1000 seeded injections: every scenario, outcome, detail and
        # wrong-result flag must match across all three tiers.
        # (Injection hooks deoptimize per-step; hook-free phases run
        # fused.)
        from repro.faultinject import engine as engine_mod
        from repro.faultinject.campaign import run_campaign

        real_cpu = engine_mod.CPU
        records = {}
        for tier in Tier:

            def tiered_cpu(*args, _tier=tier, **kwargs):
                return real_cpu(*args, tier=_tier, **kwargs)

            monkeypatch.setattr(engine_mod, "CPU", tiered_cpu)
            records[tier] = run_campaign(1000).records
        _assert_tier_blind(records)


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
    @settings(max_examples=60, deadline=None)
    @given(mixed_program())
    def test_run_outcome_identical(self, source):
        # Unlike the predecode differential (which single-steps), this
        # drives cpu.run() so fused blocks, mid-block faults and the
        # fall-back paths all engage.
        program = assemble(source)
        outcomes = {}
        for tier in Tier:
            cpu, roots = _fresh_cpu(tier)
            _load(cpu, roots, program)
            try:
                cpu.run(max_steps=500)
                outcomes[tier] = ("halted", _state(cpu))
            except Trap as trap:
                outcomes[tier] = (
                    "trap", trap.cause, trap.pc, str(trap), _state(cpu)
                )
            except RuntimeError as exc:
                outcomes[tier] = ("exceeded", str(exc), _state(cpu))
        _assert_tier_blind(outcomes)

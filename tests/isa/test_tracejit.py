"""Trace-JIT tier unit tests: compilation, guards, invalidation, stats.

The differential matrix lives in ``test_block_cache.py`` (every
differential there runs interpreter / block cache / trace-JIT); this
file pins the JIT-specific machinery — threshold promotion, the
self-loop trace shape, guard bail-outs with prefix replay, dirty-range
invalidation of compiled code, the unsupported-block fallback, the
shared source→code cache, and the stats surface.
"""

from dataclasses import fields

import pytest

from repro.capability import make_roots
from repro.isa import CPU, ExecutionMode, Tier, Trap, assemble
from repro.isa import tracejit
from repro.memory import SystemBus, TaggedMemory
from repro.pipeline import CoreKind, make_core_model

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2000_8000
DATA_SIZE = 0x100


def _make_cpu(source, jit_threshold=2, tier=Tier.JIT, timing=True,
              mode=ExecutionMode.CHERIOT):
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
    roots = make_roots()
    cpu = CPU(
        bus, mode, tier=tier, jit_threshold=jit_threshold
    )
    if timing:
        cpu.timing = make_core_model(CoreKind.IBEX)
    program = assemble(source)
    if mode is ExecutionMode.CHERIOT:
        cpu.load_program(program, CODE_BASE, pcc=roots.executable)
        cpu.regs.write(
            8, roots.memory.set_address(DATA_BASE).set_bounds(DATA_SIZE)
        )
    else:
        cpu.load_program(program, CODE_BASE)
        cpu.regs.write_int(8, DATA_BASE)
    return cpu


def _compiled_blocks(cpu):
    # The block dict holds None for ranges that refused translation.
    return [
        b for b in cpu._blocks.values() if b is not None and b.jit is not None
    ]


class TestPromotion:
    def test_hot_self_loop_compiles_to_trace(self):
        cpu = _make_cpu(
            """
                li a0, 137
            loop:
                addi a0, a0, -1
                bnez a0, loop
                halt
            """
        )
        cpu.run()
        assert cpu.jit_stats.compiles >= 1
        assert cpu.jit_stats.executions > 0
        assert cpu.jit_stats.instructions > 0
        assert cpu.jit_stats.unsupported == 0
        loops = [b.jit for b in _compiled_blocks(cpu) if b.jit.self_loop]
        assert loops, "the hot back-edge block should compile as a trace"
        # The trace shape: an internal loop returning (next_pc, iters).
        assert "while True:" in loops[0].source
        assert "_it" in loops[0].source

    def test_cold_blocks_stay_fused(self):
        # A threshold higher than the iteration count (and a program
        # body unique to this test, so the shared code cache cannot
        # adopt it) must never compile.
        cpu = _make_cpu(
            """
                li a0, 7
            loop:
                addi a0, a0, -3
                addi a0, a0, 2
                bnez a0, loop
                halt
            """,
            jit_threshold=1000,
        )
        cpu.run()
        assert cpu.jit_stats.compiles == 0
        assert cpu.block_stats.executions > 0

    def test_disabled_never_compiles(self):
        cpu = _make_cpu(
            "li a0, 60\nloop:\naddi a0, a0, -1\nbnez a0, loop\nhalt\n",
            tier=Tier.FUSED,
        )
        cpu.run()
        assert cpu.jit_stats.compiles == 0
        assert cpu.jit_stats.executions == 0


class TestExecutionEquivalence:
    SOURCE = """
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

    def _state(self, cpu):
        stats = tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats))
        cycles = (
            cpu.timing.cycles,
            cpu.timing.stats.stall_cycles,
            cpu.timing.stats.bus_beats,
        )
        return cpu.regs.snapshot(), stats, cycles, cpu.pc

    def test_jit_bit_identical_to_interpreter(self):
        ref = _make_cpu(self.SOURCE, tier=Tier.STEP)
        ref.run()
        jit = _make_cpu(self.SOURCE, jit_threshold=2)
        jit.run()
        assert jit.jit_stats.executions > 0
        assert self._state(jit) == self._state(ref)

    def test_executions_count_loop_iterations(self):
        # Each completed trace-loop iteration counts once, so the
        # counter is comparable with BlockCacheStats.executions.
        cpu = _make_cpu(
            "li a0, 100\nloop:\naddi a0, a0, -1\nbnez a0, loop\nhalt\n",
            jit_threshold=2,
        )
        cpu.run()
        fused = cpu.block_stats.executions
        compiled = cpu.jit_stats.executions
        # 100 back-edge executions split between the two tiers (plus
        # the entry/exit blocks); nothing double-counted.
        assert compiled > 50
        assert fused + compiled <= 110


class TestGuardBail:
    SOURCE = """
        li a0, 80
    loop:
        lw a1, 0(s1)
        cincaddrimm s1, s1, 4
        addi a0, a0, -1
        bnez a0, loop
        halt
    """

    def _run(self, **kwargs):
        cpu = _make_cpu(self.SOURCE, **kwargs)
        roots = make_roots()
        # s1 walks off the end of a 64-word buffer on iteration 65,
        # faulting inside the (by then compiled) trace loop.
        cpu.regs.write(
            9, roots.memory.set_address(DATA_BASE).set_bounds(DATA_SIZE)
        )
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        trap = excinfo.value
        stats = tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats))
        return cpu, (trap.cause, trap.pc, str(trap), cpu.regs.snapshot(),
                     stats, cpu.timing.cycles)

    def test_mid_trace_fault_replays_exactly(self):
        ref_cpu, ref = self._run(tier=Tier.FUSED)
        jit_cpu, jit = self._run(jit_threshold=2)
        assert jit_cpu.jit_stats.guard_bails >= 1
        assert jit_cpu.jit_stats.executions > 0
        assert jit == ref


class TestRecoveryResume:
    """A guard bail leaves the CPU consistent enough to *resume*.

    The recovery machinery (compartment RETRY handlers, the executive's
    watchdog) re-drives a CPU after a fault; that only works if a trap
    thrown out of compiled code leaves pc and registers exactly where
    the interpreter would.  Repair the faulting capability at the trap
    point, continue the run, and the completed state must be
    bit-identical across tiers.
    """

    SOURCE = TestGuardBail.SOURCE

    def _fault_repair_resume(self, **kwargs):
        cpu = _make_cpu(self.SOURCE, **kwargs)
        roots = make_roots()
        cpu.regs.write(
            9, roots.memory.set_address(DATA_BASE).set_bounds(DATA_SIZE)
        )
        with pytest.raises(Trap):
            cpu.run()
        # The handler's repair: a fresh buffer wide enough to finish.
        cpu.regs.write(
            9, roots.memory.set_address(DATA_BASE).set_bounds(0x1000)
        )
        cpu.run()
        stats = tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats))
        return cpu, (cpu.regs.snapshot(), stats, cpu.pc, cpu.timing.cycles)

    def test_resume_after_mid_trace_fault_matches_interpreter(self):
        ref_cpu, ref = self._fault_repair_resume(tier=Tier.FUSED)
        jit_cpu, jit = self._fault_repair_resume(jit_threshold=2)
        assert jit_cpu.jit_stats.guard_bails >= 1
        assert jit_cpu.halted and ref_cpu.halted
        assert jit == ref


class TestInvalidation:
    SOURCE = """
        li t0, 60
    loop:
        addi t0, t0, -1
        bnez t0, loop
        halt
    """

    def test_store_drops_compiled_code_and_recompiles(self):
        cpu = _make_cpu(self.SOURCE, jit_threshold=2)
        cpu.run()
        compiles = cpu.jit_stats.compiles
        assert compiles >= 1
        assert _compiled_blocks(cpu)
        cpu.bus.write_word(CODE_BASE + 4, 0x0000_0013)
        assert cpu.jit_stats.invalidations >= 1
        assert not _compiled_blocks(cpu)
        cpu.pc = CODE_BASE
        cpu.run()
        assert cpu.jit_stats.compiles > compiles


class TestUnsupportedFallback:
    def test_csr_read_never_enters_a_block(self):
        # Every fusable mnemonic has generator support; csrr is not
        # fusable, so it ends blocks at the cache layer and the JIT
        # never sees it — the loop still runs, interpreted around the
        # CSR read.
        cpu = _make_cpu(
            """
                li a0, 30
            loop:
                csrr t1, mcycle
                addi a0, a0, -1
                bnez a0, loop
                halt
            """,
            jit_threshold=2,
        )
        cpu.run()
        assert cpu.jit_stats.unsupported == 0
        assert cpu.regs.read_int(10) == 0

    def test_cheriot_only_instruction_in_rv32e_marks_unsupported(self):
        # In RV32E mode capability mnemonics are fusable (the table is
        # mode-independent) but execute to an illegal-instruction trap;
        # the generator refuses such blocks, which must stay on the
        # fused tier and raise the exact architectural fault.
        outcomes = []
        for tier in (Tier.FUSED, Tier.JIT):
            cpu = _make_cpu(
                "li a0, 1\ncgetlen a1, s0\nhalt\n",
                mode=ExecutionMode.RV32E,
                tier=tier,
                jit_threshold=2,
            )
            with pytest.raises(Trap) as excinfo:
                cpu.run()
            trap = excinfo.value
            outcomes.append((trap.cause, trap.pc, str(trap)))
            if tier is Tier.JIT:
                assert cpu.jit_stats.unsupported >= 1
                assert cpu.jit_stats.compiles == 0
        assert outcomes[0] == outcomes[1]


class TestCodeCache:
    SOURCE = """
        li a0, 29
    loop:
        addi a0, a0, -2
        addi a0, a0, 1
        bnez a0, loop
        halt
    """

    def test_second_cpu_adopts_hot_code_below_threshold(self):
        # CPU 1 crosses the threshold and populates the shared
        # source->code cache; a fresh CPU 2 running the same image with
        # the default threshold (50 > 29 iterations) still executes
        # compiled code, via the first-execution cached-only probe.
        first = _make_cpu(self.SOURCE, jit_threshold=2)
        first.run()
        assert first.jit_stats.compiles >= 1
        second = _make_cpu(self.SOURCE, jit_threshold=50)
        second.run()
        assert second.jit_stats.executions > 0
        assert second.regs.read_int(10) == 0

    def test_code_cache_reuses_code_objects(self):
        first = _make_cpu(self.SOURCE, jit_threshold=2)
        first.run()
        blocks = _compiled_blocks(first)
        assert blocks
        src = blocks[0].jit.source
        assert src in tracejit._CODE_CACHE
        second = _make_cpu(self.SOURCE, jit_threshold=2)
        second.run()
        twins = [b for b in _compiled_blocks(second)
                 if b.jit.source == src]
        assert twins
        # Same source text -> the exec'd function shares one code object
        # (the cached module code's function constant).
        assert twins[0].jit.fn.__code__ in tracejit._CODE_CACHE[src].co_consts
        assert blocks[0].jit.fn.__code__ is twins[0].jit.fn.__code__


class TestStatsSurface:
    def test_reset_covers_every_field(self):
        stats = tracejit.TraceJITStats(
            compiles=1, executions=2, instructions=3, guard_bails=4,
            invalidations=5, unsupported=6,
        )
        stats.reset()
        assert all(getattr(stats, f.name) == 0 for f in fields(stats))

    def test_system_summary_exposes_tier_groups(self):
        from repro.machine import System

        system = System.build()
        summary = system.stats_summary()
        assert "block_cache" in summary
        assert "trace_jit" in summary
        assert set(summary["trace_jit"]) == {
            "compiles", "executions", "instructions", "guard_bails",
            "invalidations", "unsupported",
        }
        # CPUs the system creates aggregate into the registry groups.
        cpu = system.make_cpu()
        assert cpu.jit_stats is system.trace_jit_stats
        assert cpu.block_stats is system.block_cache_stats

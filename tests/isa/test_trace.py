"""Tests for the execution trace recorder."""

from repro.isa import CPU, ExecutionMode, ExecutionTrace, Tier, assemble
from repro.pipeline import CoreKind, make_core_model
from .conftest import CODE_BASE, make_cpu


class TestTrace:
    def _traced_run(self, bus, roots, source, **kw):
        cpu = make_cpu(bus, roots, source)
        trace = ExecutionTrace(code_base=CODE_BASE, **kw).attach(cpu)
        cpu.run()
        return trace

    def test_records_every_instruction(self, bus, roots):
        trace = self._traced_run(bus, roots, "li a0, 1\nli a1, 2\nadd a2, a0, a1\nhalt")
        assert len(trace) == 3  # halt raises before retire accounting
        assert trace.entries[0].text == "li a0, 1"
        assert trace.entries[0].pc == CODE_BASE
        assert trace.entries[2].pc == CODE_BASE + 8

    def test_branch_marking(self, bus, roots):
        trace = self._traced_run(
            bus, roots, "li a0, 1\nbnez a0, skip\nnop\nskip: halt"
        )
        assert any(e.branch_taken for e in trace.entries)

    def test_limit_drops_excess(self, bus, roots):
        trace = self._traced_run(
            bus, roots,
            "li a0, 100\nloop: addi a0, a0, -1\nbnez a0, loop\nhalt",
            limit=10,
        )
        assert len(trace) == 10
        assert trace.dropped > 0

    def test_hook_coexists_with_timing_model(self, bus, roots):
        """The hook style leaves the timing slot to the real model."""
        core = make_core_model(CoreKind.IBEX)
        cpu = make_cpu(bus, roots, "li a0, 1\nlw a1, 0(s0)\nhalt")
        from .conftest import DATA_BASE

        cpu.regs.write(8, roots.memory.set_address(DATA_BASE).set_bounds(64))
        cpu.timing = core
        trace = ExecutionTrace(code_base=CODE_BASE).attach(cpu)
        cpu.run()
        assert core.cycles > 0
        assert len(trace) == 2

    def test_detach_stops_recording(self, bus, roots):
        cpu = make_cpu(bus, roots, "li a0, 1\nli a1, 2\nadd a2, a0, a1\nhalt")
        trace = ExecutionTrace(code_base=CODE_BASE).attach(cpu)
        cpu.step()
        trace.detach(cpu)
        cpu.run()
        assert len(trace) == 1
        assert trace.entries[0].pc == CODE_BASE

    def test_histogram_and_render(self, bus, roots):
        trace = self._traced_run(
            bus, roots, "li a0, 3\nloop: addi a0, a0, -1\nbnez a0, loop\nhalt"
        )
        histogram = trace.mnemonic_histogram()
        assert histogram["addi"] == 3
        assert histogram["bnez"] == 3
        rendered = trace.render(last=2)
        assert rendered.count("\n") == 1


class TestTraceUnderPredecode:
    """The trace recorder sees real Instruction objects and per-retire
    info from the pre-decoded fast path, so its output must be identical
    to the interpretive reference path."""

    SOURCE = (
        "li a0, 3\n"
        "loop: addi a0, a0, -1\n"
        "lw a1, 0(s0)\n"
        "bnez a0, loop\n"
        "jal ra, leaf\n"
        "halt\n"
        "leaf: cgetaddr a2, s0\n"
        "ret\n"
    )

    def _render(self, tier):
        from repro.capability import make_roots
        from repro.isa import assemble
        from repro.memory import SystemBus, TaggedMemory
        from .conftest import DATA_BASE

        bus = SystemBus()
        bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
        roots = make_roots()
        cpu = CPU(bus, ExecutionMode.CHERIOT, tier=tier)
        cpu.load_program(assemble(self.SOURCE), CODE_BASE, pcc=roots.executable)
        cpu.regs.write(8, roots.memory.set_address(DATA_BASE).set_bounds(64))
        trace = ExecutionTrace(code_base=CODE_BASE).attach(cpu)
        cpu.run()
        return trace

    def test_render_identical_across_paths(self):
        interp = self._render(Tier.INTERP)
        fast = self._render(Tier.JIT)
        assert fast.render() == interp.render()
        assert fast.mnemonic_histogram() == interp.mnemonic_histogram()
        assert [ (e.pc, e.text, e.timing_class, e.branch_taken)
                 for e in fast.entries ] == [
               (e.pc, e.text, e.timing_class, e.branch_taken)
                 for e in interp.entries ]

"""The retire stream a trace recorder sees.

A retire hook receives the real :class:`~repro.isa.Instruction` and the
per-retire info, so a trace built from it (one line per retired
instruction: its pc and its reassemblable text) must read the same on
``CPU`` as on the interpretive reference.
"""

from collections import Counter

from repro.capability import make_roots
from repro.isa import CPU, ExecutionMode, assemble, instruction_to_source
from repro.isa.disassembler import source_labels
from repro.memory import SystemBus, TaggedMemory
from .conftest import CODE_BASE, DATA_BASE
from .test_executor_reference import _ReferenceCPU


def _render(entries):
    """One line per retired instruction: its pc and its text."""
    return "\n".join(f"{pc:#010x}  {text}" for pc, text, *_ in entries)


def _histogram(entries):
    """Retired instructions counted by mnemonic."""
    return Counter(text.split()[0] for _, text, *_ in entries)


class TestTraceUnderPredecode:
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

    def _trace(self, impl):
        """Run the program on ``impl``; one (pc, text, timing class,
        branch taken) record per retired instruction."""
        program = assemble(self.SOURCE)
        labels = source_labels(program)
        bus = SystemBus()
        bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
        roots = make_roots()
        cpu = impl(bus, ExecutionMode.CHERIOT)
        cpu.load_program(program, CODE_BASE, pcc=roots.executable)
        cpu.regs.write(8, roots.memory.set_address(DATA_BASE).set_bounds(64))
        entries = []
        cpu.add_retire_hook(
            lambda instr, info: entries.append((
                info.pc, instruction_to_source(instr, labels),
                instr.timing_class, info.branch_taken,
            ))
        )
        cpu.run()
        assert cpu.block_stats.executions == 0
        # ``halt`` counts itself but reaches no hook.
        assert len(entries) == cpu.stats.instructions - 1
        return entries

    def test_render_identical_across_paths(self):
        interp = self._trace(_ReferenceCPU)
        fast = self._trace(CPU)
        assert fast == interp
        assert _render(fast) == _render(interp)
        assert _histogram(fast) == _histogram(interp)
        assert _histogram(interp)["addi"] == 3
        assert _histogram(interp)["cgetaddr"] == 1
        assert interp[0][0] == CODE_BASE
        assert any(taken for *_, taken in interp)

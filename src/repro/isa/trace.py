"""Execution tracing for the ISA simulator.

Attach an :class:`ExecutionTrace` to a CPU with :meth:`attach` — it
rides the executor's retire hook, so the ``timing`` slot stays free for
a real timing model — and every retired instruction is recorded with
its PC and disassembly; capability-register writes can be reconstructed
from the register file afterwards.  This is a debugging aid for
compiler and RTOS work — the embedded equivalent of a waveform viewer's
instruction lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .disassembler import format_instruction
from .instructions import Instruction


@dataclass(frozen=True)
class TraceEntry:
    """One retired instruction."""

    index: int
    pc: int
    text: str
    timing_class: str
    branch_taken: bool

    def __str__(self) -> str:
        marker = " (taken)" if self.branch_taken else ""
        return f"{self.pc:#010x}  {self.text}{marker}"


class ExecutionTrace:
    """Retire-stream recorder riding the CPU's retire hook."""

    def __init__(self, limit: int = 100_000, code_base: int = 0) -> None:
        self.limit = limit
        self.code_base = code_base
        self.entries: List[TraceEntry] = []
        self._dropped = 0

    # ------------------------------------------------------------------
    # The retire hook
    # ------------------------------------------------------------------

    def attach(self, cpu) -> "ExecutionTrace":
        """Register on ``cpu``'s retire hook; returns self for chaining."""
        cpu.add_retire_hook(self.record)
        return self

    def detach(self, cpu) -> None:
        cpu.remove_retire_hook(self.record)

    def record(self, instr: Instruction, info) -> None:
        """Record one retired instruction (the hook signature)."""
        if len(self.entries) >= self.limit:
            self._dropped += 1
            return
        self.entries.append(
            TraceEntry(
                index=len(self.entries),
                pc=info.pc,
                text=instr.text or format_instruction(instr, self.code_base),
                timing_class=instr.timing_class,
                branch_taken=info.branch_taken,
            )
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def dropped(self) -> int:
        return self._dropped

    def __len__(self) -> int:
        return len(self.entries)

    def render(self, last: Optional[int] = None) -> str:
        entries = self.entries if last is None else self.entries[-last:]
        return "\n".join(str(entry) for entry in entries)

    def mnemonic_histogram(self) -> "dict[str, int]":
        counts: dict = {}
        for entry in self.entries:
            mnemonic = entry.text.split()[0]
            counts[mnemonic] = counts.get(mnemonic, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: -kv[1]))

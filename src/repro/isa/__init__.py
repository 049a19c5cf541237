"""The simulated CHERIoT RISC-V instruction set (RV32E + M + Xcheriot)."""

from .assembler import AssemblerError, Program, assemble
from .blockcache import BlockCacheStats
from .csr import CSRError, CSRFile, HWMState
from .disassembler import (
    disassemble,
    format_instruction,
    instruction_to_source,
    to_source,
)
from .exceptions import Trap, TrapCause, trap_from_capability_fault
from .executor import CPU, ExecStats, ExecutionMode, Halted, Tier
from .instructions import INSTRUCTION_SPECS, Instruction, InstructionSpec
from .load_filter import LoadFilter, LoadFilterStats
from .pmp import PMP_ENTRIES, PMPEntry, PMPUnit, PMPViolation
from .timer import ClintTimer
from .trace import ExecutionTrace, TraceEntry
from .registers import (
    ABI_NAMES,
    NUM_REGS,
    RegisterFile,
    register_index,
)

__all__ = [
    "ABI_NAMES",
    "AssemblerError",
    "BlockCacheStats",
    "CPU",
    "CSRError",
    "CSRFile",
    "ClintTimer",
    "ExecStats",
    "ExecutionTrace",
    "ExecutionMode",
    "HWMState",
    "Halted",
    "INSTRUCTION_SPECS",
    "Instruction",
    "InstructionSpec",
    "LoadFilter",
    "LoadFilterStats",
    "NUM_REGS",
    "PMPEntry",
    "PMPUnit",
    "PMPViolation",
    "PMP_ENTRIES",
    "Program",
    "RegisterFile",
    "Tier",
    "TraceEntry",
    "Trap",
    "TrapCause",
    "assemble",
    "disassemble",
    "instruction_to_source",
    "to_source",
    "format_instruction",
    "register_index",
    "trap_from_capability_fault",
]

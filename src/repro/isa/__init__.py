"""The simulated CHERIoT RISC-V instruction set (RV32E + M + Xcheriot)."""

from .assembler import AssemblerError, Program, assemble
from .blockcache import BlockCacheStats
from .csr import CSRError, CSRFile, HWMState
from .disassembler import instruction_to_source, to_source
from .exceptions import Trap, TrapCause, trap_from_capability_fault
from .executor import CPU, ExecStats, ExecutionMode, Halted
from .instructions import INSTRUCTION_SPECS, Instruction, InstructionSpec
from .load_filter import LoadFilter, LoadFilterStats
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
    "ExecStats",
    "ExecutionMode",
    "HWMState",
    "Halted",
    "INSTRUCTION_SPECS",
    "Instruction",
    "InstructionSpec",
    "LoadFilter",
    "LoadFilterStats",
    "NUM_REGS",
    "Program",
    "RegisterFile",
    "Trap",
    "TrapCause",
    "assemble",
    "instruction_to_source",
    "to_source",
    "register_index",
    "trap_from_capability_fault",
]

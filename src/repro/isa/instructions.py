"""Instruction definitions for the simulated CHERIoT RISC-V subset.

The simulator models RV32E + M + the CHERIoT capability extension at
instruction granularity.  Instructions are represented structurally (a
mnemonic plus decoded operands) rather than as 32-bit encodings: binary
encoding fidelity buys nothing for the paper's claims, while structural
representation keeps the assembler and executor honest and testable.

Each mnemonic carries an *operand signature* (how the assembler parses
it) and a *timing class* (how the pipeline models cost it):

========== ==================================================
class       meaning
========== ==================================================
``ALU``     single-cycle register/immediate arithmetic
``MUL``     multiplier
``DIV``     iterative divider
``LOAD``    data load (byte/half/word)
``STORE``   data store
``CLOAD``   capability load (``clc``) — subject to the load filter
``CSTORE``  capability store (``csc``)
``CAP``     capability manipulation (register-to-register)
``BRANCH``  conditional branch
``JUMP``    jal/jalr (incl. capability jumps and sentries)
``CSR``     CSR access
``SYSTEM``  ecall/mret/wfi/halt
========== ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


# Timing classes
ALU = "ALU"
MUL = "MUL"
DIV = "DIV"
LOAD = "LOAD"
STORE = "STORE"
CLOAD = "CLOAD"
CSTORE = "CSTORE"
CAP = "CAP"
BRANCH = "BRANCH"
JUMP = "JUMP"
CSR = "CSR"
SYSTEM = "SYSTEM"


@dataclass(frozen=True, slots=True)
class InstructionSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    signature: str  # comma-separated operand kinds, see assembler
    timing_class: str
    #: The signature split into operand kinds, parsed once at table
    #: construction so neither the assembler nor the executor re-splits
    #: the string per instruction.
    kinds: Tuple[str, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "kinds", tuple(k for k in self.signature.split(",") if k)
        )


def _spec(mnemonic: str, signature: str, timing_class: str) -> "Tuple[str, InstructionSpec]":
    return mnemonic, InstructionSpec(mnemonic, signature, timing_class)


#: Operand kind legend for signatures:
#:   rd / rs / rt — register;  imm — integer immediate;
#:   mem — ``imm(rs)`` addressing;  label — branch/jump target;
#:   csr — CSR name;  scr — special capability register name;
#:   str — bare symbol (sentry type names).
INSTRUCTION_SPECS: Dict[str, InstructionSpec] = dict(
    [
        # --- RV32 ALU, register-register ---
        _spec("add", "rd,rs,rt", ALU),
        _spec("sub", "rd,rs,rt", ALU),
        _spec("and", "rd,rs,rt", ALU),
        _spec("or", "rd,rs,rt", ALU),
        _spec("xor", "rd,rs,rt", ALU),
        _spec("sll", "rd,rs,rt", ALU),
        _spec("srl", "rd,rs,rt", ALU),
        _spec("sra", "rd,rs,rt", ALU),
        _spec("slt", "rd,rs,rt", ALU),
        _spec("sltu", "rd,rs,rt", ALU),
        # --- M extension ---
        _spec("mul", "rd,rs,rt", MUL),
        _spec("mulh", "rd,rs,rt", MUL),
        _spec("mulhu", "rd,rs,rt", MUL),
        _spec("div", "rd,rs,rt", DIV),
        _spec("divu", "rd,rs,rt", DIV),
        _spec("rem", "rd,rs,rt", DIV),
        _spec("remu", "rd,rs,rt", DIV),
        # --- ALU, immediate ---
        _spec("addi", "rd,rs,imm", ALU),
        _spec("andi", "rd,rs,imm", ALU),
        _spec("ori", "rd,rs,imm", ALU),
        _spec("xori", "rd,rs,imm", ALU),
        _spec("slli", "rd,rs,imm", ALU),
        _spec("srli", "rd,rs,imm", ALU),
        _spec("srai", "rd,rs,imm", ALU),
        _spec("slti", "rd,rs,imm", ALU),
        _spec("sltiu", "rd,rs,imm", ALU),
        _spec("lui", "rd,imm", ALU),
        _spec("li", "rd,imm", ALU),  # pseudo kept whole; documented 1-cycle
        _spec("mv", "rd,rs", ALU),
        _spec("nop", "", ALU),
        # --- branches ---
        _spec("beq", "rs,rt,label", BRANCH),
        _spec("bne", "rs,rt,label", BRANCH),
        _spec("blt", "rs,rt,label", BRANCH),
        _spec("bge", "rs,rt,label", BRANCH),
        _spec("bltu", "rs,rt,label", BRANCH),
        _spec("bgeu", "rs,rt,label", BRANCH),
        _spec("beqz", "rs,label", BRANCH),
        _spec("bnez", "rs,label", BRANCH),
        # --- jumps ---
        _spec("jal", "rd,label", JUMP),
        _spec("j", "label", JUMP),
        _spec("jalr", "rd,rs", JUMP),  # capability jump (cjalr) in cheriot mode
        _spec("ret", "", JUMP),
        # --- loads / stores ---
        _spec("lb", "rd,mem", LOAD),
        _spec("lbu", "rd,mem", LOAD),
        _spec("lh", "rd,mem", LOAD),
        _spec("lhu", "rd,mem", LOAD),
        _spec("lw", "rd,mem", LOAD),
        _spec("sb", "rs,mem", STORE),
        _spec("sh", "rs,mem", STORE),
        _spec("sw", "rs,mem", STORE),
        _spec("clc", "rd,mem", CLOAD),
        _spec("csc", "rs,mem", CSTORE),
        # --- capability manipulation ---
        _spec("cmove", "rd,rs", CAP),
        _spec("cgetaddr", "rd,rs", CAP),
        _spec("csetaddr", "rd,rs,rt", CAP),
        _spec("cincaddr", "rd,rs,rt", CAP),
        _spec("cincaddrimm", "rd,rs,imm", CAP),
        _spec("cgetbase", "rd,rs", CAP),
        _spec("cgettop", "rd,rs", CAP),
        _spec("cgetlen", "rd,rs", CAP),
        _spec("cgetperm", "rd,rs", CAP),
        _spec("cgettag", "rd,rs", CAP),
        _spec("cgettype", "rd,rs", CAP),
        _spec("csetbounds", "rd,rs,rt", CAP),
        _spec("csetboundsexact", "rd,rs,rt", CAP),
        _spec("csetboundsimm", "rd,rs,imm", CAP),
        _spec("candperm", "rd,rs,rt", CAP),
        _spec("ccleartag", "rd,rs", CAP),
        _spec("cseal", "rd,rs,rt", CAP),
        _spec("cunseal", "rd,rs,rt", CAP),
        _spec("csealentry", "rd,rs,str", CAP),
        _spec("ctestsubset", "rd,rs,rt", CAP),
        _spec("csub", "rd,rs,rt", CAP),
        _spec("cram", "rd,rs", CAP),
        _spec("crrl", "rd,rs", CAP),
        _spec("cspecialrw", "rd,scr,rs", CAP),
        _spec("auipcc", "rd,imm", CAP),
        # --- CSRs ---
        _spec("csrr", "rd,csr", CSR),
        _spec("csrw", "csr,rs", CSR),
        _spec("csrrw", "rd,csr,rs", CSR),
        _spec("csrsi", "csr,imm", CSR),
        _spec("csrci", "csr,imm", CSR),
        # --- system ---
        _spec("ecall", "", SYSTEM),
        _spec("mret", "", SYSTEM),
        _spec("wfi", "", SYSTEM),
        _spec("halt", "", SYSTEM),
    ]
)


#: One shared ``source_regs`` tuple per distinct register list: a
#: program holds few (15 among the 1,409 live instructions after
#: ``table3(iterations=2)``).
_SOURCE_REGS: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    ``operands`` hold register indices (int), immediates (int), resolved
    label targets (int, instruction index), CSR/SCR names (str), or
    ``(imm, reg)`` tuples for memory addressing.
    """

    mnemonic: str
    operands: Tuple = ()
    text: str = field(default="", compare=False)
    #: Spec resolved once at construction (None for unknown mnemonics,
    #: which only trap when executed — matching hardware decode).
    _spec: Optional[InstructionSpec] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The static facts the timing model reads on every retire, derived
    #: once here from the spec: the timing class (None for an unknown
    #: mnemonic, which traps before it could retire), the registers the
    #: instruction reads (``rs``/``rt`` and the base of ``imm(rs)``) and,
    #: for a load, the register it writes.
    timing_class: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    source_regs: Tuple[int, ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    load_dest: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        spec = INSTRUCTION_SPECS.get(self.mnemonic)
        object.__setattr__(self, "_spec", spec)
        if spec is None:
            return
        object.__setattr__(self, "timing_class", spec.timing_class)
        sources = []
        for kind, operand in zip(spec.kinds, self.operands):
            if kind == "rs" or kind == "rt":
                sources.append(operand)
            elif kind == "mem":
                sources.append(operand[1])
        regs = tuple(sources)
        object.__setattr__(self, "source_regs", _SOURCE_REGS.setdefault(regs, regs))
        if spec.timing_class in (LOAD, CLOAD) and self.operands:
            object.__setattr__(self, "load_dest", self.operands[0])

    @property
    def spec(self) -> InstructionSpec:
        spec = self._spec
        if spec is None:
            raise KeyError(self.mnemonic)
        return spec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.text or self.mnemonic}>"

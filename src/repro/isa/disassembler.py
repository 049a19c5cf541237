"""Disassembly of structural programs back to assembler source.

:func:`to_source` renders a program — including one produced
*programmatically*, like the mini compiler's — as text that feeds back
through :func:`repro.isa.assembler.assemble` to a program with
identical mnemonics and operand fields.  That round trip is the
assembler's oracle in the property tests.
"""

from __future__ import annotations

from typing import Dict, List

from .assembler import Program
from .instructions import Instruction
from .registers import ABI_NAMES


def operand_to_source(kind: str, operand, labels_by_index: Dict[int, str]) -> str:
    """One operand as reassemblable text (labels by name, not address)."""
    if kind in ("rd", "rs", "rt"):
        return ABI_NAMES[operand]
    if kind == "imm":
        return str(operand)
    if kind == "mem":
        offset, reg = operand
        return f"{offset}({ABI_NAMES[reg]})"
    if kind == "label":
        return labels_by_index[operand]
    return str(operand)  # csr / scr / str operands are stored as text


def instruction_to_source(
    instr: Instruction, labels_by_index: Dict[int, str]
) -> str:
    """One instruction as text the assembler accepts back."""
    kinds = [k for k in instr.spec.signature.split(",") if k]
    operands = ", ".join(
        operand_to_source(kind, operand, labels_by_index)
        for kind, operand in zip(kinds, instr.operands)
    )
    return f"{instr.mnemonic} {operands}".strip()


def source_labels(program: Program) -> Dict[int, str]:
    """Pick one label name per referenced instruction index.

    Prefers the program's own label table; indices that are branch
    targets but carry no name get a synthesised ``.L<index>`` (the dot
    prefix keeps synthesised names out of the user namespace, and a
    collision with an existing label simply reuses it).
    """
    by_index: Dict[int, str] = {}
    for label in sorted(program.labels):
        by_index.setdefault(program.labels[label], label)
    for instr in program.instructions:
        kinds = [k for k in instr.spec.signature.split(",") if k]
        for kind, operand in zip(kinds, instr.operands):
            if kind == "label":
                by_index.setdefault(operand, f".L{operand}")
    return by_index


def to_source(program: Program) -> str:
    """Render a program as text that reassembles to identical fields.

    The round trip ``assemble(to_source(p))`` preserves every
    instruction's mnemonic and operand tuple; label *names* may differ
    (synthesised ``.L<n>`` for anonymous targets) but resolve to the
    same indices.
    """
    labels_by_index = source_labels(program)
    lines: List[str] = []
    for index, instr in enumerate(program.instructions):
        if index in labels_by_index:
            lines.append(f"{labels_by_index[index]}:")
        lines.append(f"    {instruction_to_source(instr, labels_by_index)}")
    # A label may point one past the last instruction (an end marker);
    # the assembler binds a trailing bare label to that same index.
    end = len(program.instructions)
    if end in labels_by_index:
        lines.append(f"{labels_by_index[end]}:")
    return "\n".join(lines) + "\n"

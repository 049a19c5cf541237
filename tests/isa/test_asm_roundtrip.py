"""Property test: every instruction round-trips through disassembly.

For any instruction the assembler can produce, rendering it back with
``to_source`` and reassembling must yield the identical mnemonic and
operand tuple — the disassembler is a faithful inverse, not just a
pretty-printer.  Strategies draw mnemonics from the live
``INSTRUCTION_SPECS`` table, so a new instruction added with an operand
kind the renderer mishandles fails here immediately.  The compiled
CoreMark workalike and every audited image round-trip whole.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.isa import assemble, to_source  # noqa: E402
from repro.isa.csr import CSR_NAMES  # noqa: E402
from repro.isa.disassembler import instruction_to_source, source_labels  # noqa: E402
from repro.isa.instructions import INSTRUCTION_SPECS  # noqa: E402
from repro.isa.registers import SCR_NAMES  # noqa: E402

SENTRY_KINDS = ("inherit", "disable", "enable", "ret_dis", "ret_en")

#: Immediates the assembler accepts: any Python int literal in decimal.
_imm = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
_reg = st.integers(min_value=0, max_value=15)


def _operand_strategy(kind: str, program_len: int):
    if kind in ("rd", "rs", "rt"):
        return _reg
    if kind == "imm":
        return _imm
    if kind == "mem":
        return st.tuples(_imm, _reg)
    if kind == "label":
        # A label operand is an instruction index; allow the
        # one-past-the-end marker the assembler also accepts.
        return st.integers(min_value=0, max_value=program_len)
    if kind == "csr":
        return st.sampled_from(CSR_NAMES)
    if kind == "scr":
        return st.sampled_from(SCR_NAMES)
    if kind == "str":
        return st.sampled_from(SENTRY_KINDS)
    raise AssertionError(f"unknown operand kind {kind!r}")


@st.composite
def programs(draw):
    """A random well-formed program as (mnemonic, operands) tuples."""
    mnemonics = draw(
        st.lists(
            st.sampled_from(sorted(INSTRUCTION_SPECS)), min_size=1, max_size=12
        )
    )
    instrs = []
    for mnemonic in mnemonics:
        spec = INSTRUCTION_SPECS[mnemonic]
        kinds = [k for k in spec.signature.split(",") if k]
        operands = tuple(
            draw(_operand_strategy(kind, len(mnemonics))) for kind in kinds
        )
        instrs.append((mnemonic, operands))
    return instrs


def _assemble_fields(instrs):
    """Build a program from field tuples by writing assembler text."""
    lines = []
    for index in range(len(instrs) + 1):
        lines.append(f".L{index}:")
        if index < len(instrs):
            mnemonic, operands = instrs[index]
            lines.append(f"    {_render(mnemonic, operands)}")
    return assemble("\n".join(lines))


def _render(mnemonic, operands):
    kinds = [k for k in INSTRUCTION_SPECS[mnemonic].signature.split(",") if k]
    parts = []
    for kind, operand in zip(kinds, operands):
        if kind in ("rd", "rs", "rt"):
            parts.append(f"x{operand}")
        elif kind == "mem":
            parts.append(f"{operand[0]}(x{operand[1]})")
        elif kind == "label":
            parts.append(f".L{operand}")
        else:
            parts.append(str(operand))
    return f"{mnemonic} {', '.join(parts)}".strip()


@settings(max_examples=200, deadline=None)
@given(programs())
def test_every_instruction_round_trips(instrs):
    program = _assemble_fields(instrs)
    rebuilt = assemble(to_source(program))
    assert len(rebuilt) == len(program)
    for original, again in zip(program.instructions, rebuilt.instructions):
        assert again.mnemonic == original.mnemonic
        assert again.operands == original.operands


@settings(max_examples=200, deadline=None)
@given(programs())
def test_label_indices_survive_even_when_names_differ(instrs):
    program = _assemble_fields(instrs)
    rebuilt = assemble(to_source(program))
    for (mnemonic, _), original, again in zip(
        instrs, program.instructions, rebuilt.instructions
    ):
        kinds = [k for k in INSTRUCTION_SPECS[mnemonic].signature.split(",") if k]
        for kind, before, after in zip(kinds, original.operands, again.operands):
            if kind == "label":
                assert before == after


def _stock_programs():
    """Every program a result runs or audits, by name: the CoreMark
    workalike in each configuration, and the audited images (their
    ``switcher`` is the assembly switcher image)."""
    from repro.verify.images import AUDITED_IMAGES
    from repro.workloads.coremark import CONFIGS, coremark_program

    programs = {
        f"coremark-{config}": (lambda config=config: coremark_program(config, 1))
        for config in CONFIGS
    }
    programs.update({
        f"audited-{name}": (lambda build=build: build().program)
        for name, build in AUDITED_IMAGES.items()
    })
    return programs


STOCK_PROGRAMS = _stock_programs()


@pytest.mark.parametrize("name", sorted(STOCK_PROGRAMS))
def test_stock_program_round_trips(name):
    program = STOCK_PROGRAMS[name]()
    rebuilt = assemble(to_source(program))
    assert [(i.mnemonic, i.operands) for i in rebuilt.instructions] == [
        (i.mnemonic, i.operands) for i in program.instructions
    ]


def test_source_labels_prefers_program_names():
    program = assemble("entry:\n    nop\n    j entry\n")
    assert source_labels(program) == {0: "entry"}
    assert "entry:" in to_source(program)


def test_instruction_to_source_renders_each_kind():
    program = assemble(
        "top:\n"
        "    addi a0, a1, -42\n"
        "    clc ct0, 8(csp)\n"
        "    csrr t1, mcycle\n"
        "    cspecialrw ct2, mtdc, ct0\n"
        "    csealentry ct0, ct1, inherit\n"
        "    bne a0, zero, top\n"
    )
    labels = source_labels(program)
    rendered = [
        instruction_to_source(instr, labels) for instr in program.instructions
    ]
    assert rendered[0] == "addi a0, a1, -42"
    assert rendered[1] == "clc t0, 8(sp)"
    assert rendered[2] == "csrr t1, mcycle"
    assert rendered[3] == "cspecialrw t2, mtdc, t0"
    assert rendered[4] == "csealentry t0, t1, inherit"
    assert rendered[5] == "bne a0, zero, top"

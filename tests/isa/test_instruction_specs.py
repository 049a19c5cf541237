"""Meta-tests: the spec table, the binders and the assembler agree."""

from repro.isa.assembler import assemble
from repro.isa.executor import _BINDERS
from repro.isa.instructions import INSTRUCTION_SPECS
from repro.isa.registers import ABI_NAMES, register_index

import pytest


class TestSpecDispatchAgreement:
    """Every mnemonic in the spec table has exactly one binder: the
    binder table is keyed by mnemonic, and its keys are the spec's."""

    def test_every_spec_has_a_handler(self):
        missing = set(INSTRUCTION_SPECS) - set(_BINDERS)
        assert not missing, f"specs without binders: {missing}"

    def test_every_handler_has_a_spec(self):
        extra = set(_BINDERS) - set(INSTRUCTION_SPECS)
        assert not extra, f"binders without specs: {extra}"

    def test_signatures_are_well_formed(self):
        valid = {"rd", "rs", "rt", "imm", "mem", "label", "csr", "scr", "str"}
        for spec in INSTRUCTION_SPECS.values():
            for kind in [k for k in spec.signature.split(",") if k]:
                assert kind in valid, f"{spec.mnemonic}: bad kind {kind}"


class TestRegisterNames:
    def test_sixteen_abi_names(self):
        assert len(ABI_NAMES) == 16

    def test_all_spellings_resolve(self):
        for index, abi in enumerate(ABI_NAMES):
            assert register_index(abi) == index
            assert register_index(f"x{index}") == index
            assert register_index(f"c{index}") == index
            assert register_index(f"c{abi}") == index

    def test_fp_alias(self):
        assert register_index("fp") == register_index("s0") == 8

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            register_index("x16")
        with pytest.raises(ValueError):
            register_index("bogus")

    def test_case_insensitive(self):
        assert register_index("A0") == 10


class TestHazardFacts:
    def test_equal_register_lists_share_one_tuple(self):
        first = assemble("add a0, a1, a2\nsw a1, 4(a2)\nhalt\n")
        second = assemble("sub t0, a1, a2\naddi t1, a1, 1\nhalt\n")
        add, sw, _ = first.instructions
        sub, addi, _ = second.instructions
        assert add.source_regs == (11, 12)
        assert add.source_regs is sw.source_regs is sub.source_regs
        assert addi.source_regs == (11,)
        assert addi.source_regs is not add.source_regs

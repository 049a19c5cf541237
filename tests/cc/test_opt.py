"""Tests for the peephole optimizer: smaller code, same answers."""

import pytest

from repro.cc.lower import Target, compile_module
from repro.cc.opt import peephole
from repro.workloads.kernels import ALL_KERNELS
from tests.workloads.test_kernels import DATA_BASE, run_compiled


class TestPatterns:
    def test_store_load_fusion(self):
        lines = ["    sw t0, 8(sp)", "    lw t1, 8(sp)"]
        out, removed = peephole(lines)
        assert out == ["    sw t0, 8(sp)", "    mv t1, t0"]

    def test_store_reload_same_register_dropped(self):
        out, removed = peephole(["    csc t0, 0(csp)", "    clc t0, 0(csp)"])
        assert out == ["    csc t0, 0(csp)"]
        assert removed == 1

    def test_capability_fusion_uses_cmove(self):
        out, _ = peephole(["    csc t0, 16(csp)", "    clc a0, 16(csp)"])
        assert out[-1] == "    cmove a0, t0"

    def test_label_breaks_the_block(self):
        lines = ["    sw t0, 8(sp)", "target:", "    lw t1, 8(sp)"]
        out, removed = peephole(lines)
        assert out == lines and removed == 0

    def test_mismatched_slots_untouched(self):
        lines = ["    sw t0, 8(sp)", "    lw t1, 16(sp)"]
        assert peephole(lines)[0] == lines

    def test_mixed_width_untouched(self):
        """sw followed by clc must NOT fuse: the 4-byte store cleared

        the granule's tag; the reload correctly yields untagged bits."""
        lines = ["    sw t0, 8(csp)", "    clc t1, 8(csp)"]
        assert peephole(lines)[0] == lines

    def test_self_move_dropped(self):
        out, removed = peephole(["    mv t0, t0", "    add a0, a0, a1"])
        assert out == ["    add a0, a0, a1"]


class TestSemanticsPreserved:
    @pytest.mark.parametrize("builder", ALL_KERNELS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("target", [Target.RV32E, Target.CHERIOT])
    def test_kernels_still_match_oracles(self, builder, target):
        module, entry, args, oracle = builder()
        compiled = compile_module(
            module, target, data_base=DATA_BASE, optimize=True
        )
        # Run through the shared executor harness with optimized code.
        assert run_compiled(compiled, entry, args) == oracle

    def test_optimizer_shrinks_code(self):
        module, entry, args, _ = ALL_KERNELS[0]()
        plain = compile_module(module, Target.CHERIOT, data_base=DATA_BASE)
        tight = compile_module(
            module, Target.CHERIOT, data_base=DATA_BASE, optimize=True
        )
        assert len(tight.assembly.splitlines()) < len(plain.assembly.splitlines())

"""Tests for ALU, branch and register-file semantics."""

import pytest

from repro.isa import ExecutionMode
from .conftest import make_cpu


def run(bus, roots, body, mode=ExecutionMode.CHERIOT):
    cpu = make_cpu(bus, roots, body + "\nhalt\n", mode=mode)
    cpu.run()
    return cpu


class TestArithmetic:
    def test_add_sub(self, bus, roots):
        cpu = run(bus, roots, "li a0, 7\nli a1, 5\nadd a2, a0, a1\nsub a3, a0, a1")
        assert cpu.regs.read_int(12) == 12
        assert cpu.regs.read_int(13) == 2

    def test_wraparound(self, bus, roots):
        cpu = run(bus, roots, "li a0, 0xFFFFFFFF\naddi a0, a0, 2")
        assert cpu.regs.read_int(10) == 1

    def test_logic(self, bus, roots):
        cpu = run(
            bus, roots,
            "li a0, 0b1100\nli a1, 0b1010\n"
            "and a2, a0, a1\nor a3, a0, a1\nxor a4, a0, a1",
        )
        assert cpu.regs.read_int(12) == 0b1000
        assert cpu.regs.read_int(13) == 0b1110
        assert cpu.regs.read_int(14) == 0b0110

    def test_shifts(self, bus, roots):
        cpu = run(
            bus, roots,
            "li a0, 0x80000000\nsrli a1, a0, 4\nsrai a2, a0, 4\n"
            "li a3, 3\nslli a3, a3, 2",
        )
        assert cpu.regs.read_int(11) == 0x0800_0000
        assert cpu.regs.read_int(12) == 0xF800_0000
        assert cpu.regs.read_int(13) == 12

    def test_set_less_than(self, bus, roots):
        cpu = run(
            bus, roots,
            "li a0, -1\nli a1, 1\nslt a2, a0, a1\nsltu a3, a0, a1",
        )
        assert cpu.regs.read_int(12) == 1  # signed: -1 < 1
        assert cpu.regs.read_int(13) == 0  # unsigned: 0xFFFFFFFF > 1

    def test_mul_div_rem(self, bus, roots):
        cpu = run(
            bus, roots,
            "li a0, -6\nli a1, 4\nmul a2, a0, a1\ndiv a3, a0, a1\nrem a4, a0, a1",
        )
        assert cpu.regs.read_int(12) == (-24) & 0xFFFFFFFF
        assert cpu.regs.read_int(13) == (-1) & 0xFFFFFFFF
        assert cpu.regs.read_int(14) == (-2) & 0xFFFFFFFF

    def test_div_by_zero_is_all_ones(self, bus, roots):
        cpu = run(bus, roots, "li a0, 5\nli a1, 0\ndivu a2, a0, a1\nremu a3, a0, a1")
        assert cpu.regs.read_int(12) == 0xFFFF_FFFF
        assert cpu.regs.read_int(13) == 5

    def test_lui(self, bus, roots):
        cpu = run(bus, roots, "lui a0, 0x12345")
        assert cpu.regs.read_int(10) == 0x1234_5000


class TestZeroRegister:
    def test_reads_zero(self, bus, roots):
        cpu = run(bus, roots, "li a0, 9\nadd a1, zero, zero")
        assert cpu.regs.read_int(11) == 0

    def test_ignores_writes(self, bus, roots):
        cpu = run(bus, roots, "li zero, 42\nadd a0, zero, zero")
        assert cpu.regs.read_int(10) == 0


class TestBranches:
    def test_loop(self, bus, roots):
        cpu = run(
            bus, roots,
            """
            li a0, 0
            li a1, 5
            loop:
            add a0, a0, a1
            addi a1, a1, -1
            bnez a1, loop
            """,
        )
        assert cpu.regs.read_int(10) == 15
        assert cpu.stats.instructions == 2 + 3 * 5 + 1  # five trips, halt

    @pytest.mark.parametrize(
        "op,a,b,taken",
        [
            ("beq", 3, 3, True),
            ("bne", 3, 3, False),
            ("blt", -1, 1, True),
            ("bge", -1, 1, False),
            ("bltu", -1, 1, False),  # unsigned -1 is huge
            ("bgeu", -1, 1, True),
        ],
    )
    def test_conditions(self, bus, roots, op, a, b, taken):
        cpu = run(
            bus, roots,
            f"""
            li a0, {a}
            li a1, {b}
            li a2, 0
            {op} a0, a1, skip
            li a2, 1
            skip:
            """,
        )
        assert cpu.regs.read_int(12) == (0 if taken else 1)


class TestBothModes:
    def test_same_results_rv32e(self, bus, roots):
        source = "li a0, 10\nli a1, 3\nmul a2, a0, a1\naddi a2, a2, 7"
        cheriot = run(bus, roots, source)
        rv32e = run(bus, roots, source, mode=ExecutionMode.RV32E)
        assert cheriot.regs.read_int(12) == rv32e.regs.read_int(12) == 37

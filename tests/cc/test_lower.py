"""Tests for the mini compiler: both targets, same semantics."""

import pytest

from repro.cc import ir
from repro.cc.lower import Target, compile_module
from repro.isa import CPU, ExecutionMode, Trap, assemble
from repro.memory import Region, SystemBus, TaggedMemory
from repro.workloads.coremark import boot

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2001_0000
GLOBALS = Region("globals", DATA_BASE, 0x1000)
STACK = Region("stack", DATA_BASE + 0x1000, 0xF000)

V, C, B = ir.Var, ir.Const, ir.BinOp


def run_function(module, entry, args=(), target=Target.CHERIOT,
                 fixed_compiler=False):
    """Compile, load and execute ``entry``; returns (a0, cpu)."""
    compiled = compile_module(
        module, target, fixed_compiler=fixed_compiler, data_base=DATA_BASE
    )
    arg_setup = "\n".join(f"li a{i}, {val}" for i, val in enumerate(args))
    driver = f"_start:\n{arg_setup}\njal ra, {entry}\nhalt\n"
    program = assemble(compiled.assembly + driver)

    bus = SystemBus()
    bus.attach_sram(TaggedMemory(0x2000_0000, 0x2_0000))
    cheriot = target is Target.CHERIOT
    cpu = CPU(bus, mode=ExecutionMode.CHERIOT if cheriot else ExecutionMode.RV32E)
    boot(cpu, program, CODE_BASE, STACK, GLOBALS)
    cpu.run(max_steps=2_000_000)
    return cpu.regs.read_int(10), cpu


def simple_module():
    m = ir.Module()
    fn = ir.Function(
        "triangle",
        params=[ir.Param("n", ir.INT)],
        locals={"i": ir.INT, "acc": ir.INT},
    )
    fn.body = [
        ir.Assign("acc", C(0)),
        ir.Assign("i", C(1)),
        ir.While(
            B("<=", V("i"), V("n")),
            (
                ir.Assign("acc", B("+", V("acc"), V("i"))),
                ir.Assign("i", B("+", V("i"), C(1))),
            ),
        ),
        ir.Return(V("acc")),
    ]
    m.add_function(fn)
    return m


class TestBothTargets:
    @pytest.mark.parametrize("target", [Target.RV32E, Target.CHERIOT])
    def test_triangle_number(self, target):
        result, _ = run_function(simple_module(), "triangle", (10,), target)
        assert result == 55

    @pytest.mark.parametrize("target", [Target.RV32E, Target.CHERIOT])
    def test_globals_and_pointers(self, target):
        m = ir.Module()
        m.add_global("table", 64)
        fn = ir.Function("fill_and_sum", locals={"i": ir.INT, "p": ir.PTR, "acc": ir.INT})
        fn.body = [
            ir.Assign("i", C(0)),
            ir.While(
                B("<", V("i"), C(8)),
                (
                    ir.Assign("p", ir.PtrAdd(ir.GlobalRef("table"), B("*", V("i"), C(4)))),
                    ir.Store(V("p"), B("*", V("i"), V("i"))),
                    ir.Assign("i", B("+", V("i"), C(1))),
                ),
            ),
            ir.Assign("acc", C(0)),
            ir.Assign("i", C(0)),
            ir.While(
                B("<", V("i"), C(8)),
                (
                    ir.Assign("p", ir.PtrAdd(ir.GlobalRef("table"), B("*", V("i"), C(4)))),
                    ir.Assign("acc", B("+", V("acc"), ir.Load(V("p")))),
                    ir.Assign("i", B("+", V("i"), C(1))),
                ),
            ),
            ir.Return(V("acc")),
        ]
        m.add_function(fn)
        result, _ = run_function(m, "fill_and_sum", (), target)
        assert result == sum(i * i for i in range(8))

    @pytest.mark.parametrize("target", [Target.RV32E, Target.CHERIOT])
    def test_local_arrays(self, target):
        m = ir.Module()
        fn = ir.Function(
            "revsum",
            locals={"i": ir.INT, "p": ir.PTR, "acc": ir.INT},
            arrays={"buf": 32},
        )
        fn.body = [
            ir.Assign("i", C(0)),
            ir.While(
                B("<", V("i"), C(8)),
                (
                    ir.Assign("p", ir.PtrAdd(ir.LocalArrayRef("buf"), B("*", V("i"), C(4)))),
                    ir.Store(V("p"), B("+", V("i"), C(100))),
                    ir.Assign("i", B("+", V("i"), C(1))),
                ),
            ),
            ir.Assign("p", ir.PtrAdd(ir.LocalArrayRef("buf"), C(28))),
            ir.Assign("acc", ir.Load(V("p"))),
            ir.Return(V("acc")),
        ]
        m.add_function(fn)
        result, _ = run_function(m, "revsum", (), target)
        assert result == 107

    @pytest.mark.parametrize("target", [Target.RV32E, Target.CHERIOT])
    def test_function_calls(self, target):
        m = simple_module()
        caller = ir.Function("twice", params=[ir.Param("n", ir.INT)], locals={"r": ir.INT})
        caller.body = [
            ir.Assign("r", ir.CallExpr("triangle", (V("n"),))),
            ir.Return(B("*", V("r"), C(2))),
        ]
        m.add_function(caller)
        result, _ = run_function(m, "twice", (4,), target)
        assert result == 20


class TestCheriotSpecifics:
    def test_array_overrun_traps_on_cheriot_only(self):
        m = ir.Module()
        fn = ir.Function("overrun", locals={"p": ir.PTR}, arrays={"buf": 16})
        fn.body = [
            ir.Assign("p", ir.PtrAdd(ir.LocalArrayRef("buf"), C(16))),
            ir.Store(V("p"), C(1)),  # one past the end
            ir.Return(C(0)),
        ]
        m.add_function(fn)
        # CHERIoT: the csetboundsimm-derived capability traps the store
        # precisely at the faulting instruction.
        with pytest.raises(Trap) as cheri_trap:
            run_function(m, "overrun", (), Target.CHERIOT)
        assert "bounds" in str(cheri_trap.value)
        # rv32e: the one-past store lands on the saved return address
        # (classic stack smashing) and `ret` jumps into the weeds — the
        # attacker-controlled-control-flow class CHERIoT kills.
        with pytest.raises(Trap) as rv_trap:
            run_function(m, "overrun", (), Target.RV32E)
        assert rv_trap.value.pc == 1  # control flow went to the stored value

    def test_compiler_bugs_add_instructions(self):
        m = ir.Module()
        m.add_global("g", 16)
        fn = ir.Function("touch", locals={"p": ir.PTR, "x": ir.INT})
        fn.body = [
            ir.Assign("p", ir.GlobalRef("g")),
            ir.Assign("x", ir.Load(V("p"), 4)),
            ir.Return(V("x")),
        ]
        m.add_function(fn)
        buggy = compile_module(m, Target.CHERIOT, data_base=DATA_BASE)
        fixed = compile_module(
            m, Target.CHERIOT, fixed_compiler=True, data_base=DATA_BASE
        )
        assert buggy.assembly.count("csetboundsimm") > fixed.assembly.count(
            "csetboundsimm"
        )
        assert buggy.assembly.count("cincaddrimm") > fixed.assembly.count(
            "cincaddrimm"
        )

    def test_pointer_slots_are_capability_width(self):
        m = simple_module()
        fn = ir.Function("ptrslot", locals={"p": ir.PTR})
        fn.body = [ir.Assign("p", ir.GlobalRef("g")), ir.Return(C(0))]
        m.add_global("g", 8)
        m.add_function(fn)
        cheriot = compile_module(m, Target.CHERIOT, data_base=DATA_BASE)
        assert "csc" in cheriot.assembly  # pointer spill is a cap store
        rv32e = compile_module(m, Target.RV32E, data_base=DATA_BASE)
        assert "csc" not in rv32e.assembly


class TestIRValidation:
    def test_nested_calls_rejected(self):
        m = simple_module()
        bad = ir.Function("bad", locals={"r": ir.INT})
        bad.body = [
            ir.Assign("r", ir.CallExpr("triangle", (ir.CallExpr("triangle", (C(1),)),)))
        ]
        m.add_function(bad)
        with pytest.raises(ir.IRError):
            compile_module(m, Target.RV32E, data_base=DATA_BASE)

    def test_unknown_variable_rejected(self):
        m = ir.Module()
        fn = ir.Function("bad")
        fn.body = [ir.Return(V("ghost"))]
        m.add_function(fn)
        with pytest.raises(ir.IRError):
            compile_module(m, Target.RV32E, data_base=DATA_BASE)

    def test_unknown_function_call_rejected(self):
        m = ir.Module()
        fn = ir.Function("bad")
        fn.body = [ir.ExprStmt(ir.CallExpr("missing", ()))]
        m.add_function(fn)
        with pytest.raises(ir.IRError):
            compile_module(m, Target.RV32E, data_base=DATA_BASE)

    def test_duplicate_function_rejected(self):
        m = simple_module()
        with pytest.raises(ir.IRError):
            m.add_function(ir.Function("triangle"))

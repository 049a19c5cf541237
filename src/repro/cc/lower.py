"""Lowering the kernel IR to rv32e or CHERIoT assembly.

The code generator is deliberately simple — all locals live in stack
slots, expressions evaluate on a small scratch-register stack — which
matches the paper's ``-Oz`` setting (optimize for size, performance
second).  What it models *carefully* is everything the paper says
distinguishes CHERIoT codegen from plain RV32E (section 7.2):

* pointer-typed values occupy capability registers; loading/storing
  them uses ``clc``/``csc`` (8 bytes, two bus beats on Ibex, and the
  loaded value passes the load filter);
* address-taken stack allocations get ``csetboundsimm`` applied — the
  unavoidable bounds-setting cost;
* **compiler bug 1**: constant-offset folding into load/store address
  computation does not fire when the base is a capability, so CHERIoT
  code pays an extra ``cincaddrimm`` per non-zero-offset access;
* **compiler bug 2**: every access to a global re-applies bounds
  (``csetboundsimm``) even when provably in bounds.

Both "bugs" can be disabled (``fixed_compiler=True``) to model the
fixes the authors expect before silicon — used by the ablation bench.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import ir


class Target(enum.Enum):
    RV32E = "rv32e"
    CHERIOT = "cheriot"


#: Scratch registers for expression evaluation (never holds locals).
_SCRATCH = ("t0", "t1", "t2", "a4", "a5")
#: Argument registers (a0..a3).
_ARG_REGS = ("a0", "a1", "a2", "a3")

_CMP_OPS = {"<", "<u", "<=", ">", ">=", "==", "!="}
_SIMPLE_OPS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "rem",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "sll",
    ">>": "srl",
}


@dataclass
class GlobalLayout:
    """Where a global lands in the data region."""

    name: str
    offset: int
    size: int
    init: bytes


@dataclass
class CompiledModule:
    """Assembly text plus the data-region layout the driver must set up."""

    assembly: str
    globals_layout: Dict[str, GlobalLayout]
    data_size: int
    target: Target


class CodeGen:
    """One-shot lowering of a :class:`repro.cc.ir.Module`."""

    def __init__(
        self,
        module: ir.Module,
        target: Target,
        fixed_compiler: bool = False,
        data_base: int = 0,
        optimize: bool = False,
    ) -> None:
        self.module = module
        self.target = target
        self.fixed_compiler = fixed_compiler
        #: Run the peephole pass (register reuse of just-stored values).
        self.optimize = optimize
        #: Absolute address of the data region (rv32e addresses globals
        #: absolutely; CHERIoT reaches them through the gp capability).
        self.data_base = data_base
        self._lines: List[str] = []
        self._label_counter = 0
        self._globals: Dict[str, GlobalLayout] = {}
        self._data_size = 0
        self._layout_globals()
        # Per-function state
        self._fn: Optional[ir.Function] = None
        self._slots: Dict[str, int] = {}
        self._frame = 0
        self._scratch_depth = 0
        self._epilogue_label = ""

    # ------------------------------------------------------------------
    # Module-level
    # ------------------------------------------------------------------

    def _layout_globals(self) -> None:
        offset = 0
        for name, gvar in self.module.globals.items():
            self._globals[name] = GlobalLayout(name, offset, gvar.size, gvar.init)
            offset += gvar.size
        self._data_size = offset

    def compile(self) -> CompiledModule:
        """Lower every function; entry order follows insertion order."""
        for function in self.module.functions.values():
            self._lower_function(function)
        lines = self._lines
        if self.optimize:
            from .opt import peephole

            lines, _ = peephole(lines)
        return CompiledModule(
            assembly="\n".join(lines) + "\n",
            globals_layout=dict(self._globals),
            data_size=self._data_size,
            target=self.target,
        )

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    def _emit(self, line: str) -> None:
        self._lines.append("    " + line)

    def _label(self, hint: str) -> str:
        self._label_counter += 1
        return f".L{hint}{self._label_counter}"

    def _place(self, label: str) -> None:
        self._lines.append(f"{label}:")

    @property
    def _cheriot(self) -> bool:
        return self.target is Target.CHERIOT

    def _slot_size(self, type_: str) -> int:
        if type_ == ir.PTR and self._cheriot:
            return 8
        return 4

    # ------------------------------------------------------------------
    # Scratch register stack
    # ------------------------------------------------------------------

    def _push(self) -> str:
        if self._scratch_depth >= len(_SCRATCH):
            raise ir.IRError("expression too deep for the scratch stack")
        reg = _SCRATCH[self._scratch_depth]
        self._scratch_depth += 1
        return reg

    def _pop(self) -> None:
        self._scratch_depth -= 1

    # ------------------------------------------------------------------
    # Function lowering
    # ------------------------------------------------------------------

    def _lower_function(self, fn: ir.Function) -> None:
        self._fn = fn
        self._slots = {}
        offset = 0
        # Locals and params first (ints 4B, pointers 4B/8B by target)...
        for param in fn.params:
            size = self._slot_size(param.type)
            offset = _align(offset, size)
            self._slots[param.name] = offset
            offset += size
        for name, type_ in fn.locals.items():
            size = self._slot_size(type_)
            offset = _align(offset, size)
            self._slots[name] = offset
            offset += size
        # ...then address-taken arrays, 8-aligned.
        for name, nbytes in fn.arrays.items():
            offset = _align(offset, 8)
            self._slots[name] = offset
            offset += _align(nbytes, 8)
        # Return-address slot at the frame top.
        ra_size = 8 if self._cheriot else 4
        offset = _align(offset, ra_size)
        self._ra_slot = offset
        offset += ra_size
        self._frame = _align(offset, 8)
        self._epilogue_label = self._label(f"ret_{fn.name}_")

        self._place(fn.name)
        self._prologue(fn)
        for stmt in fn.body:
            self._stmt(stmt)
        # Implicit return for fall-through.
        self._place(self._epilogue_label)
        self._epilogue()

    def _prologue(self, fn: ir.Function) -> None:
        if self._cheriot:
            self._emit(f"cincaddrimm csp, csp, -{self._frame}")
            self._emit(f"csc cra, {self._ra_slot}(csp)")
        else:
            self._emit(f"addi sp, sp, -{self._frame}")
            self._emit(f"sw ra, {self._ra_slot}(sp)")
        for index, param in enumerate(fn.params):
            if index >= len(_ARG_REGS):
                raise ir.IRError(f"{fn.name}: too many parameters")
            self._store_slot(param.name, _ARG_REGS[index], fn.type_of(param.name))

    def _epilogue(self) -> None:
        if self._cheriot:
            self._emit(f"clc cra, {self._ra_slot}(csp)")
            self._emit(f"cincaddrimm csp, csp, {self._frame}")
        else:
            self._emit(f"lw ra, {self._ra_slot}(sp)")
            self._emit(f"addi sp, sp, {self._frame}")
        self._emit("ret")

    # ------------------------------------------------------------------
    # Slots
    # ------------------------------------------------------------------

    def _load_slot(self, name: str, reg: str, type_: str) -> None:
        off = self._slots[name]
        if type_ == ir.PTR and self._cheriot:
            self._emit(f"clc {reg}, {off}(csp)")
        elif self._cheriot:
            self._emit(f"lw {reg}, {off}(csp)")
        else:
            self._emit(f"lw {reg}, {off}(sp)")

    def _store_slot(self, name: str, reg: str, type_: str) -> None:
        off = self._slots[name]
        if type_ == ir.PTR and self._cheriot:
            self._emit(f"csc {reg}, {off}(csp)")
        elif self._cheriot:
            self._emit(f"sw {reg}, {off}(csp)")
        else:
            self._emit(f"sw {reg}, {off}(sp)")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _expr(self, expr: ir.Expr) -> str:
        """Evaluate ``expr`` into a fresh scratch register."""
        if isinstance(expr, ir.Const):
            reg = self._push()
            self._emit(f"li {reg}, {expr.value}")
            return reg
        if isinstance(expr, ir.Var):
            reg = self._push()
            assert self._fn is not None
            self._load_slot(expr.name, reg, self._fn.type_of(expr.name))
            return reg
        if isinstance(expr, ir.BinOp):
            return self._binop(expr)
        if isinstance(expr, ir.Load):
            return self._load(expr)
        if isinstance(expr, ir.PtrAdd):
            return self._ptradd(expr)
        if isinstance(expr, ir.GlobalRef):
            return self._globalref(expr)
        if isinstance(expr, ir.LocalArrayRef):
            return self._arrayref(expr)
        if isinstance(expr, ir.CallExpr):
            raise ir.IRError(
                "calls may only appear as the whole right-hand side of an "
                "assignment or as a statement"
            )
        raise ir.IRError(f"unknown expression node: {expr!r}")

    def _binop(self, expr: ir.BinOp) -> str:
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        op = expr.op
        if op in _SIMPLE_OPS:
            self._emit(f"{_SIMPLE_OPS[op]} {left}, {left}, {right}")
        elif op == "<":
            self._emit(f"slt {left}, {left}, {right}")
        elif op == "<u":
            self._emit(f"sltu {left}, {left}, {right}")
        elif op == ">":
            self._emit(f"slt {left}, {right}, {left}")
        elif op == "<=":
            self._emit(f"slt {left}, {right}, {left}")
            self._emit(f"xori {left}, {left}, 1")
        elif op == ">=":
            self._emit(f"slt {left}, {left}, {right}")
            self._emit(f"xori {left}, {left}, 1")
        elif op == "==":
            self._emit(f"sub {left}, {left}, {right}")
            self._emit(f"sltiu {left}, {left}, 1")
        elif op == "!=":
            self._emit(f"sub {left}, {left}, {right}")
            self._emit(f"sltu {left}, zero, {left}")
        else:
            raise ir.IRError(f"unknown operator {op!r}")
        self._pop()  # right
        return left

    def _load(self, expr: ir.Load) -> str:
        reg = self._expr(expr.ptr)
        mnemonic = {1: "lbu", 2: "lhu", 4: "lw"}[expr.size]
        if expr.signed:
            mnemonic = {1: "lb", 2: "lh", 4: "lw"}[expr.size]
        offset = expr.offset
        if self._cheriot and offset != 0 and not self.fixed_compiler:
            # Compiler bug 1: no folding of constant offsets into
            # capability-based addressing — materialize the address.
            self._emit(f"cincaddrimm {reg}, {reg}, {offset}")
            offset = 0
        if expr.as_ptr:
            self._emit(f"clc {reg}, {offset}({reg})" if self._cheriot
                       else f"lw {reg}, {offset}({reg})")
        else:
            self._emit(f"{mnemonic} {reg}, {offset}({reg})")
        return reg

    def _ptradd(self, expr: ir.PtrAdd) -> str:
        base = self._expr(expr.ptr)
        delta = self._expr(expr.delta)
        if self._cheriot:
            self._emit(f"cincaddr {base}, {base}, {delta}")
        else:
            self._emit(f"add {base}, {base}, {delta}")
        self._pop()
        return base

    def _globalref(self, expr: ir.GlobalRef) -> str:
        layout = self._globals[expr.name]
        reg = self._push()
        if self._cheriot:
            self._emit(f"cincaddrimm {reg}, gp, {layout.offset}")
            if not self.fixed_compiler:
                # Compiler bug 2: bounds re-applied on every global access.
                self._emit(f"csetboundsimm {reg}, {reg}, {layout.size}")
        else:
            self._emit(f"li {reg}, {self.data_base + layout.offset}")
        return reg

    def _arrayref(self, expr: ir.LocalArrayRef) -> str:
        assert self._fn is not None
        if expr.name not in self._fn.arrays:
            raise ir.IRError(f"{self._fn.name}: unknown array {expr.name!r}")
        off = self._slots[expr.name]
        size = self._fn.arrays[expr.name]
        reg = self._push()
        if self._cheriot:
            self._emit(f"cincaddrimm {reg}, csp, {off}")
            # The compiler must set bounds on address-taken stack
            # allocations (section 7.2.1) — fundamental, not a bug.
            self._emit(f"csetboundsimm {reg}, {reg}, {size}")
        else:
            self._emit(f"addi {reg}, sp, {off}")
        return reg

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _stmt(self, stmt: ir.Stmt) -> None:
        assert self._fn is not None
        if isinstance(stmt, ir.Assign):
            if isinstance(stmt.value, ir.CallExpr):
                self._call(stmt.value)
                self._store_slot(stmt.var, "a0", self._fn.type_of(stmt.var))
                return
            reg = self._expr(stmt.value)
            self._store_slot(stmt.var, reg, self._fn.type_of(stmt.var))
            self._pop()
        elif isinstance(stmt, ir.Store):
            self._store(stmt)
        elif isinstance(stmt, ir.StorePtr):
            self._store_ptr(stmt)
        elif isinstance(stmt, ir.If):
            self._if(stmt)
        elif isinstance(stmt, ir.While):
            self._while(stmt)
        elif isinstance(stmt, ir.Return):
            if stmt.value is not None:
                reg = self._expr(stmt.value)
                self._emit(f"mv a0, {reg}")
                self._pop()
            self._emit(f"j {self._epilogue_label}")
        elif isinstance(stmt, ir.ExprStmt):
            if isinstance(stmt.expr, ir.CallExpr):
                self._call(stmt.expr)
            else:
                reg = self._expr(stmt.expr)
                self._pop()
        else:
            raise ir.IRError(f"unknown statement node: {stmt!r}")

    def _resolved_store_target(self, ptr: ir.Expr, offset: int) -> "Tuple[str, int]":
        reg = self._expr(ptr)
        if self._cheriot and offset != 0 and not self.fixed_compiler:
            self._emit(f"cincaddrimm {reg}, {reg}, {offset}")  # bug 1 again
            offset = 0
        return reg, offset

    def _store(self, stmt: ir.Store) -> None:
        value = self._expr(stmt.value)
        reg, offset = self._resolved_store_target(stmt.ptr, stmt.offset)
        mnemonic = {1: "sb", 2: "sh", 4: "sw"}[stmt.size]
        self._emit(f"{mnemonic} {value}, {offset}({reg})")
        self._pop()  # reg
        self._pop()  # value

    def _store_ptr(self, stmt: ir.StorePtr) -> None:
        value = self._expr(stmt.value)
        reg, offset = self._resolved_store_target(stmt.ptr, stmt.offset)
        if self._cheriot:
            self._emit(f"csc {value}, {offset}({reg})")
        else:
            self._emit(f"sw {value}, {offset}({reg})")
        self._pop()
        self._pop()

    def _if(self, stmt: ir.If) -> None:
        else_label = self._label("else")
        end_label = self._label("endif")
        cond = self._expr(stmt.cond)
        self._emit(f"beqz {cond}, {else_label if stmt.orelse else end_label}")
        self._pop()
        for inner in stmt.then:
            self._stmt(inner)
        if stmt.orelse:
            self._emit(f"j {end_label}")
            self._place(else_label)
            for inner in stmt.orelse:
                self._stmt(inner)
        self._place(end_label)

    def _while(self, stmt: ir.While) -> None:
        head = self._label("while")
        end = self._label("endwhile")
        self._place(head)
        cond = self._expr(stmt.cond)
        self._emit(f"beqz {cond}, {end}")
        self._pop()
        for inner in stmt.body:
            self._stmt(inner)
        self._emit(f"j {head}")
        self._place(end)

    def _call(self, call: ir.CallExpr) -> None:
        if call.function not in self.module.functions:
            raise ir.IRError(f"call to unknown function {call.function!r}")
        if len(call.args) > len(_ARG_REGS):
            raise ir.IRError("too many call arguments")
        for index, arg in enumerate(call.args):
            if isinstance(arg, ir.CallExpr):
                raise ir.IRError("nested calls are not supported")
            reg = self._expr(arg)
            self._emit(f"mv {_ARG_REGS[index]}, {reg}")
            self._pop()
        self._emit(f"jal ra, {call.function}")


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def compile_module(
    module: ir.Module,
    target: Target,
    fixed_compiler: bool = False,
    data_base: int = 0,
    optimize: bool = False,
) -> CompiledModule:
    """Convenience wrapper: lower a module for one target."""
    return CodeGen(
        module,
        target,
        fixed_compiler=fixed_compiler,
        data_base=data_base,
        optimize=optimize,
    ).compile()

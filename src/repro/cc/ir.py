"""A tiny typed IR for benchmark kernels.

The paper compiles its benchmarks with the CHERIoT Clang; we cannot,
so this IR plus :mod:`repro.cc.lower` reproduces the *codegen effects*
that drive the reported overheads when targeting the two ISAs:

* pointers are 32-bit integers on rv32e but 64-bit capabilities on
  CHERIoT (pointer loads/stores become ``clc``/``csc``);
* the compiler must set bounds on address-taken stack allocations;
* the two known compiler bugs (section 7.2): address-computation
  folding does not fire when the base is a capability, and accesses to
  globals re-apply bounds even when provably in bounds.

Types are just ``int`` (32-bit) and ``ptr`` (pointer/capability).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

INT = "int"
PTR = "ptr"


class IRError(Exception):
    """Malformed IR (unknown variable, type mismatch, depth overflow)."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """An integer literal."""

    value: int


@dataclass(frozen=True)
class Var:
    """A reference to a local variable or parameter."""

    name: str


@dataclass(frozen=True)
class BinOp:
    """Binary operation; comparisons yield 0/1.

    Supported ops: ``+ - * / % & | ^ << >> < <= > >= == != <u``.
    """

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Load:
    """Load ``size`` bytes at ``ptr + offset``.

    ``as_ptr=True`` loads a pointer-typed value (a capability on
    CHERIoT, requiring ``clc`` and subject to the load filter).
    """

    ptr: "Expr"
    offset: int = 0
    size: int = 4
    signed: bool = False
    as_ptr: bool = False


@dataclass(frozen=True)
class PtrAdd:
    """Pointer displacement by a byte expression."""

    ptr: "Expr"
    delta: "Expr"


@dataclass(frozen=True)
class GlobalRef:
    """The address of (a pointer to) a module global."""

    name: str


@dataclass(frozen=True)
class LocalArrayRef:
    """A pointer to a function-local array (address-taken stack slot)."""

    name: str


@dataclass(frozen=True)
class CallExpr:
    """Direct call to another function in the module."""

    function: str
    args: Tuple["Expr", ...] = ()


Expr = Union[Const, Var, BinOp, Load, PtrAdd, GlobalRef, LocalArrayRef, CallExpr]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    var: str
    value: Expr


@dataclass(frozen=True)
class Store:
    """Store ``value`` (int-typed) at ``ptr + offset``."""

    ptr: Expr
    value: Expr
    offset: int = 0
    size: int = 4


@dataclass(frozen=True)
class StorePtr:
    """Store a pointer-typed value (``csc`` on CHERIoT)."""

    ptr: Expr
    value: Expr
    offset: int = 0


@dataclass(frozen=True)
class If:
    cond: Expr
    then: Tuple["Stmt", ...]
    orelse: Tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class While:
    cond: Expr
    body: Tuple["Stmt", ...]


@dataclass(frozen=True)
class Return:
    value: Optional[Expr] = None


@dataclass(frozen=True)
class ExprStmt:
    expr: Expr


Stmt = Union[Assign, Store, StorePtr, If, While, Return, ExprStmt]


# ---------------------------------------------------------------------------
# Functions and modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    name: str
    type: str = INT  # INT or PTR


@dataclass
class Function:
    """One function: params, typed locals, local arrays, body."""

    name: str
    params: List[Param] = field(default_factory=list)
    locals: Dict[str, str] = field(default_factory=dict)  # name -> type
    arrays: Dict[str, int] = field(default_factory=dict)  # name -> bytes
    body: List[Stmt] = field(default_factory=list)

    def type_of(self, name: str) -> str:
        for param in self.params:
            if param.name == name:
                return param.type
        if name in self.locals:
            return self.locals[name]
        raise IRError(f"{self.name}: unknown variable {name!r}")


@dataclass
class GlobalVar:
    """A module global: a byte region, optionally initialised."""

    name: str
    size: int
    init: bytes = b""


@dataclass
class Module:
    """A linkage unit: functions plus global data."""

    functions: Dict[str, Function] = field(default_factory=dict)
    globals: Dict[str, GlobalVar] = field(default_factory=dict)

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def add_global(self, name: str, size: int, init: bytes = b"") -> GlobalVar:
        if name in self.globals:
            raise IRError(f"duplicate global {name!r}")
        size = (size + 7) & ~7
        var = GlobalVar(name, size, init)
        self.globals[name] = var
        return var

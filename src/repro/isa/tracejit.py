"""Trace-JIT tier: compile hot superblocks into specialised Python code.

The superblock cache (:mod:`repro.isa.blockcache`) removed per-step
fetch/budget overhead, but each cached block still *interprets* one
pre-decoded handler at a time: a Python call per instruction, operand
tuple unpacking, and two or three :class:`~repro.isa.registers.RegisterFile`
method calls for every ALU op.  This module is the third execution tier:
once a block has executed ``jit_threshold`` times (the executor's
per-block counter), it is compiled — via ``exec`` over generated source
— into one specialised Python function in which

* register indices and immediates are constant-folded into the source,
* register values live in Python locals across the whole block (one
  regfile read per register at entry, one write per dirty register at
  exit),
* capability bounds/permission checks are inlined on the exception-free
  fast path (``Capability.allows`` with pre-folded permission masks,
  falling back to ``check_access`` for the architecturally-ordered
  fault),
* the :class:`~repro.pipeline.BlockCharge` batch cycle charge is one
  inlined ``charge_block`` call, with the same pre-memory-op cycle
  streaming the fused interpreter does (so MMIO reads mid-block still
  observe single-step-exact cycle counts), and
* simple terminators (conditional branches, ``j``, link-less ``jal``)
  are compiled into the same function, so a hot loop body plus its
  back-edge becomes a single closure and chained compiled blocks
  dispatch back-to-back from the executor's block loop.

Correctness contract — identical to the block cache's: *observational
equivalence with single-stepping*.  Three mechanisms enforce it:

1. **Same deopt predicate.**  Compiled code only runs from the fused
   block loop, which the executor refuses entirely whenever an observer
   is attached (``pre_step_hook``, retire hooks, a polled timer, a
   non-batchable timing model).  Telemetry and fault campaigns keep
   seeing the unchanged per-instruction stream.
2. **Same invalidation.**  Compiled functions hang off their
   :class:`~repro.isa.blockcache.Block`; the dirty-range hooks that drop
   a block on stores into its code range drop the compiled code with it.
3. **Guard bail-out.**  Every faultable operation is preceded by a
   ``cpu.pc`` update, and the generated ``except`` block materializes
   the architectural register state exactly as of the faulting
   instruction (write-back tables indexed by the guard ordinal ``_k``),
   reverts any streamed cycles, and re-raises — after which the executor
   reuses PR 4's prefix-replay machinery (:meth:`CPU._block_fault`):
   the retired prefix is re-accounted through the ordinary ``retire()``
   path and the fault is delivered exactly like a single step's.

Anything the code generator does not support (capability instructions in
RV32E mode, unknown sentry names) marks the block *uncompilable* and it
simply stays on the fused-interpreter tier — which, in turn, falls back
to exact single-stepping.  The tiers only ever remove overhead, never
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple


_WORD = 0xFFFFFFFF


@dataclass(slots=True)
class TraceJITStats:
    """Trace-JIT observability counters (host-side only)."""

    #: Blocks compiled to specialised functions (incl. recompiles after
    #: invalidation or a timing-model swap).
    compiles: int = 0
    #: Compiled-block executions.  Each completed iteration of a
    #: trace-loop counts once, so the number compares directly with
    #: :class:`~repro.isa.blockcache.BlockCacheStats` ``executions``.
    executions: int = 0
    #: Instructions retired through compiled dispatches.
    instructions: int = 0
    #: Guard failures inside compiled code (capability fault, bounds
    #: miss, misalignment): state was materialized and the fault
    #: replayed through the interpreter's prefix-replay path.
    guard_bails: int = 0
    #: Compiled blocks dropped by stores into their code range.
    invalidations: int = 0
    #: Blocks the code generator refused (stay on the fused tier).
    unsupported: int = 0

    def reset(self) -> None:
        # Field-derived so a new counter can never miss the reset.
        for f in fields(self):
            setattr(self, f.name, 0)


class CompiledBlock:
    """One block's generated function plus its dispatch metadata."""

    __slots__ = ("fn", "consumed", "handles_term", "self_loop", "source")

    def __init__(self, fn, consumed: int, handles_term: bool,
                 self_loop: bool, source: str):
        self.fn = fn
        #: Step-budget units one execution of the function retires: the
        #: straight line (plus the terminator when ``handles_term``).
        self.consumed = consumed
        #: True when the terminator is compiled in (the function returns
        #: the real next PC); False when the executor must run the
        #: terminator interpreted (the function returns ``-1``).
        self.handles_term = handles_term
        #: True for the trace shape: a block whose compiled terminator
        #: jumps back to its own start.  The function signature becomes
        #: ``fn(cpu, max_iter) -> (next_pc, iterations)`` and iterates
        #: internally — checking the step budget, pending interrupts and
        #: cache invalidation at every back-edge, exactly where the
        #: executor's chained dispatch would — so hot loops pay no
        #: per-iteration dispatch overhead at all.
        self.self_loop = self_loop
        #: Generated source, kept for diagnostics and tests.
        self.source = source


class _Unsupported(Exception):
    """Raised by the generator for blocks it refuses to compile."""


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def _sx(e: str) -> str:
    """Branch-free 32-bit sign extension of a masked expression."""
    return f"(({e} ^ 0x80000000) - 0x80000000)"


#: ALU result expressions.  Each entry maps a mnemonic to a function of
#: the two *operand expressions* (strings) returning the result
#: expression — bit-identical to the executor's ``_build_dispatch``
#: lambdas (including masking behaviour).
_ALU_RR_EXPR = {
    "add": lambda a, b: f"({a} + {b}) & 0xFFFFFFFF",
    "sub": lambda a, b: f"({a} - {b}) & 0xFFFFFFFF",
    "and": lambda a, b: f"({a} & {b})",
    "or": lambda a, b: f"({a} | {b})",
    "xor": lambda a, b: f"({a} ^ {b})",
    "sll": lambda a, b: f"(({a} << ({b} & 31)) & 0xFFFFFFFF)",
    "srl": lambda a, b: f"({a} >> ({b} & 31))",
    "sra": lambda a, b: f"(({_sx(a)} >> ({b} & 31)) & 0xFFFFFFFF)",
    "slt": lambda a, b: f"(1 if {_sx(a)} < {_sx(b)} else 0)",
    "sltu": lambda a, b: f"(1 if {a} < {b} else 0)",
    "mul": lambda a, b: f"(({_sx(a)} * {_sx(b)}) & 0xFFFFFFFF)",
    "mulh": lambda a, b: f"((({_sx(a)} * {_sx(b)}) >> 32) & 0xFFFFFFFF)",
    "mulhu": lambda a, b: f"((({a} * {b}) >> 32) & 0xFFFFFFFF)",
    "div": lambda a, b: f"(_div({a}, {b}) & 0xFFFFFFFF)",
    "divu": lambda a, b: f"(0xFFFFFFFF if {b} == 0 else {a} // {b})",
    "rem": lambda a, b: f"(_rem({a}, {b}) & 0xFFFFFFFF)",
    "remu": lambda a, b: f"({a} if {b} == 0 else {a} % {b})",
}

#: Immediate forms: function of (operand expr, imm int) — the immediate
#: is folded into the source (shift amounts pre-masked, masks elided
#: when the result provably stays in 32 bits).
_ALU_RI_EXPR = {
    "addi": lambda a, i: f"({a} + {i}) & 0xFFFFFFFF",
    "andi": lambda a, i: f"({a} & {i & _WORD})",
    "ori": lambda a, i: f"({a} | {i & _WORD})" if i >= 0 else f"(({a} | {i}) & 0xFFFFFFFF)",
    "xori": lambda a, i: f"({a} ^ {i & _WORD})" if i >= 0 else f"(({a} ^ {i}) & 0xFFFFFFFF)",
    "slli": lambda a, i: f"(({a} << {i & 31}) & 0xFFFFFFFF)",
    "srli": lambda a, i: f"({a} >> {i & 31})",
    "srai": lambda a, i: f"(({_sx(a)} >> {i & 31}) & 0xFFFFFFFF)",
    "slti": lambda a, i: f"(1 if {_sx(a)} < {i} else 0)",
    "sltiu": lambda a, i: f"(1 if {a} < {i & _WORD} else 0)",
}

#: Branch condition expressions (terminator compilation).
_BRANCH_COND = {
    "beq": lambda a, b: f"{a} == {b}",
    "bne": lambda a, b: f"{a} != {b}",
    "blt": lambda a, b: f"{_sx(a)} < {_sx(b)}",
    "bge": lambda a, b: f"{_sx(a)} >= {_sx(b)}",
    "bltu": lambda a, b: f"{a} < {b}",
    "bgeu": lambda a, b: f"{a} >= {b}",
    "beqz": lambda a, b: f"{a} == 0",
    "bnez": lambda a, b: f"{a} != 0",
}

#: Memory access widths and store/load discrimination.
_LOADS = {"lb": (1, True), "lbu": (1, False), "lh": (2, True),
          "lhu": (2, False), "lw": (4, False)}
_STORES = {"sb": 1, "sh": 2, "sw": 4}

#: Capability getters: pure attribute/derived reads that cannot raise.
_CAP_GETTERS = {
    "cgetbase": lambda c: f"{c}.base",
    "cgettop": lambda c: f"min({c}.top, 0xFFFFFFFF)",
    "cgetlen": lambda c: f"min({c}.length, 0xFFFFFFFF)",
    "cgetperm": lambda c: f"_to_aw({c}.perms)",
    "cgettag": lambda c: f"(1 if {c}.tag else 0)",
    "cgettype": lambda c: f"{c}.otype",
}

#: Mnemonics whose handlers call ``_require_cheriot`` — in RV32E mode
#: they raise an illegal-instruction trap at execute time, so blocks
#: containing them stay on the fused tier (which raises it exactly).
_CHERIOT_ONLY = frozenset(
    ("clc", "csc", "cmove", "cgetaddr", "ccleartag", "csetaddr", "cincaddr",
     "cincaddrimm", "csetbounds", "csetboundsexact", "csetboundsimm",
     "candperm", "cseal", "cunseal", "csealentry", "ctestsubset", "csub",
     "cram", "crrl")
) | frozenset(_CAP_GETTERS)


class _BlockCompiler:
    """Generates the specialised function source for one block."""

    def __init__(self, cpu, block) -> None:
        self.cpu = cpu
        self.block = block
        self.cheriot = cpu.mode.value == "cheriot"
        self.timing = block.timing
        #: True when the timing model is exactly the stock
        #: :class:`~repro.pipeline.CoreModel`, whose batch charge and
        #: branch/jump retire costs can be constant-folded into the
        #: generated code (the pending-load hazard window is the only
        #: dynamic input, tested inline with the method call as the
        #: slow path).  Custom duck-typed models keep the method calls.
        if block.timing is not None:
            from repro.pipeline.model import CoreModel

            self.inline_timing = type(block.timing) is CoreModel
        else:
            self.inline_timing = False
        self.lines: List[str] = []
        #: Current representation of each register held in a local:
        #: 'i' (masked int) or 'c' (Capability).  Absent = not loaded.
        self.rep: Dict[int, str] = {}
        #: Registers whose local differs from the regfile, with the rep
        #: history needed for fault-point write-back: reg -> list of
        #: (first visible guard ordinal, rep).
        self.wb_events: Dict[int, List[Tuple[int, str]]] = {}
        #: Guard ordinals emitted so far (== ordinal of the next one).
        self.nguards = 0
        self.uses_mem = False
        self.uses_store = False
        self.uses_flush = False
        self.tmp = 0
        #: Pre-flush amount for the instruction currently being emitted
        #: (set by the driver, consumed by the memory-op emitters).
        self._pre: Optional[int] = None

    # -- emit helpers ---------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("        " + line)

    def _int_of(self, reg: int) -> str:
        if reg == 0:
            return "0"
        rep = self.rep[reg]
        return f"v{reg}" if rep == "i" else f"v{reg}.address"

    def _cap_of(self, reg: int) -> str:
        if reg == 0:
            return "_NULL"
        rep = self.rep[reg]
        return f"v{reg}" if rep == "c" else f"_null(v{reg})"

    def _write(self, reg: int, expr: str, rep: str) -> None:
        """Assign a result to a register local (discarded for x0 —
        the expression is still emitted when it can have effects)."""
        if reg == 0:
            return
        self.emit(f"v{reg} = {expr}")
        self.rep[reg] = rep
        self.wb_events.setdefault(reg, []).append((self.nguards, rep))

    def _write_effectful(self, reg: int, expr: str, rep: str) -> None:
        """Like ``_write`` but the expression may fault: for x0 it is
        still evaluated as a statement, exactly as the handler would."""
        if reg == 0:
            self.emit(expr)
            return
        self._write(reg, expr, rep)

    def _guard_point(self, pc: int) -> int:
        """Mark a faultable operation: the generated code records the
        guard ordinal and the architectural PC so a fault materializes
        the exact single-step state."""
        k = self.nguards
        self.nguards += 1
        self.emit(f"_k = {k}")
        self.emit(f"cpu.pc = {pc:#x}")
        return k

    def _temp(self) -> str:
        self.tmp += 1
        return f"_t{self.tmp}"

    # -- entry-representation pre-scan ---------------------------------

    def _instr_uses(self, instr, operands):
        """(reads, writes) as lists of (reg, rep) for the pre-scan."""
        m = instr.mnemonic
        if not self.cheriot and m in _CHERIOT_ONLY:
            raise _Unsupported(f"{m} in RV32E mode")
        reads: List[Tuple[int, str]] = []
        writes: List[Tuple[int, str]] = []
        auth_rep = "c" if self.cheriot else "i"
        if m in _ALU_RR_EXPR:
            rd, rs, rt = operands
            reads += [(rs, "i"), (rt, "i")]
            writes.append((rd, "i"))
        elif m in _ALU_RI_EXPR:
            rd, rs, _ = operands
            reads.append((rs, "i"))
            writes.append((rd, "i"))
        elif m in ("lui", "li"):
            writes.append((operands[0], "i"))
        elif m in ("mv", "cmove"):
            rd, rs = operands
            reads.append((rs, "c"))
            writes.append((rd, "c"))
        elif m == "nop":
            pass
        elif m in _LOADS:
            rd, (off, ra) = operands
            reads.append((ra, auth_rep))
            writes.append((rd, "i"))
        elif m in _STORES:
            rs, (off, ra) = operands
            reads += [(ra, auth_rep), (rs, "i")]
        elif m == "clc":
            rd, (off, ra) = operands
            reads.append((ra, "c"))
            writes.append((rd, "c"))
        elif m == "csc":
            rs, (off, ra) = operands
            reads += [(ra, "c"), (rs, "c")]
        elif m == "cgetaddr":
            reads.append((operands[1], "i"))
            writes.append((operands[0], "i"))
        elif m in _CAP_GETTERS or m == "ccleartag":
            reads.append((operands[1], "c"))
            writes.append((operands[0], "c" if m == "ccleartag" else "i"))
        elif m in ("csetaddr", "cincaddr", "csetbounds", "csetboundsexact",
                   "candperm"):
            rd, rs, rt = operands
            reads += [(rs, "c"), (rt, "i")]
            writes.append((rd, "c"))
        elif m in ("cincaddrimm", "csetboundsimm", "csealentry"):
            rd, rs, _ = operands
            reads.append((rs, "c"))
            writes.append((rd, "c"))
        elif m in ("cseal", "cunseal"):
            rd, rs, rt = operands
            reads += [(rs, "c"), (rt, "c")]
            writes.append((rd, "c"))
        elif m == "ctestsubset":
            rd, rs, rt = operands
            reads += [(rs, "c"), (rt, "c")]
            writes.append((rd, "i"))
        elif m == "csub":
            rd, rs, rt = operands
            reads += [(rs, "i"), (rt, "i")]
            writes.append((rd, "i"))
        elif m in ("cram", "crrl"):
            reads.append((operands[1], "i"))
            writes.append((operands[0], "i"))
        elif m in _BRANCH_COND:
            if len(operands) == 3:
                reads += [(operands[0], "i"), (operands[1], "i")]
            else:
                reads.append((operands[0], "i"))
        elif m in ("j", "jal"):
            pass
        else:
            raise _Unsupported(m)
        return reads, writes

    def _entry_reps(self, instrs) -> Dict[int, str]:
        """Which registers to load at entry, and in which representation.

        A register read before being written must be loaded from the
        regfile; it is loaded as a full capability when *any* pre-write
        use needs capability semantics, else as its integer address.
        """
        entry: Dict[int, str] = {}
        written = set()
        for instr, operands in instrs:
            reads, writes = self._instr_uses(instr, operands)
            for reg, kind in reads:
                if reg == 0 or reg in written:
                    continue
                if kind == "c":
                    entry[reg] = "c"
                else:
                    entry.setdefault(reg, "i")
            for reg, _ in writes:
                if reg:
                    written.add(reg)
        return entry

    # -- per-instruction emitters --------------------------------------

    def _emit_mem_checks(self, pc: int, auth: int, off: int, size: int,
                         kind: str) -> str:
        """Authorize + align an ``off(auth)`` access; returns the
        effective-address temp name.  Emits the guard prologue."""
        from .executor import _KIND_BITS, _KIND_PERMS  # fully loaded by now

        self._guard_point(pc)
        self._emit_flush(pc)
        a = self._temp()
        perms = {"r": "_P_R", "w": "_P_W", "cr": "_P_CR", "cw": "_P_CW"}[kind]
        if self.cheriot:
            if auth == 0 or self.rep[auth] == "i":
                # The authority register provably holds a NULL-derived
                # (untagged) capability: the access *will* fault; run
                # the architectural check directly so the fault is
                # ordered and worded exactly like the handler's.
                self.emit(f"{a} = ({self._int_of(auth)} + {off}) & 0xFFFFFFFF")
                self.emit(f"{self._cap_of(auth)}.check_access({a}, {size}, {perms})")
                return a
            cap = f"v{auth}"
            self.emit(f"{a} = ({cap}.address + {off}) & 0xFFFFFFFF")
            bits = _KIND_BITS[kind]
            self.emit(f"if not {cap}.allows({a}, {size}, {bits}):")
            self.emit(f"    {cap}.check_access({a}, {size}, {perms})")
        else:
            self.emit(f"{a} = ({self._int_of(auth)} + {off}) & 0xFFFFFFFF")
            pmp_kind = "r" if kind in ("r", "cr") else "w"
            self.emit(f"if _pmp is not None: _pmp.check({a}, {size}, {pmp_kind!r})")
        if size > 1:
            self.emit(f"if {a} & {size - 1}: "
                      f"raise _Trap(_MIS, {pc:#x}, f\"{{{a}:#x}} % {size}\")")
        return a

    def _emit_flush(self, pc: int) -> None:
        """Stream pre-classified cycles ahead of a memory operation, so
        host code reachable from inside the block (MMIO device reads,
        store snoopers) observes single-step-exact cycle counts."""
        if self._pre is None:
            return
        pre = self._pre
        if pre > 0:
            self.emit(f"_ts.cycles += {pre}")
            self.emit(f"_fl += {pre}")
            self.uses_flush = True
        self._pre = None

    def _mem_preamble_lines(self) -> List[str]:
        """Per-call bindings for the direct-SRAM fast path.

        Snapshotting is sound because every way the bus topology can
        change — attaching a bank or device, adding a store snooper or
        dirty watch — is a host-level API unreachable from inside a
        block (host code re-enters only through MMIO device handlers,
        and the fast path never covers device addresses); the preamble
        re-reads everything on the next call.  Any shape the fast path
        cannot prove safe simply leaves ``_b0d``/``_sok`` falsy and
        every access takes the ordinary bus path.
        """
        if not self.uses_mem:
            return []
        out = [
            "_bst = bus.stats",
            "_dv0 = bus._dev_lo",
            "_dv1 = bus._dev_hi",
            "_bks = bus._banks",
            "if len(_bks) == 1:",
            "    _b0 = _bks[0]; _b0d = _b0._data; _b0g = _b0._tags",
            "    _b0b = _b0.base; _b0e = _b0b + _b0.size",
            "else:",
            "    _b0 = None; _b0d = None; _b0g = None; _b0b = 0; _b0e = 0",
        ]
        if self.uses_store:
            out += [
                "_b0h0 = _b0._dirty_hooks if _b0 is not None else None",
                "_dws = bus._dirty_watches",
                "_w0 = _dws[0] if len(_dws) == 1 else None",
                "_sok = (_b0 is not None and not bus._store_snoopers",
                "        and (_b0h0 is None or (_w0 is not None",
                "             and _b0h0 == (bus._dispatch_dirty,))))",
            ]
        return out

    def _emit_instr(self, instr, operands, pc: int) -> None:
        m = instr.mnemonic
        if m in _ALU_RR_EXPR:
            rd, rs, rt = operands
            self._write(rd, _ALU_RR_EXPR[m](self._int_of(rs), self._int_of(rt)), "i")
        elif m in _ALU_RI_EXPR:
            rd, rs, imm = operands
            self._write(rd, _ALU_RI_EXPR[m](self._int_of(rs), imm), "i")
        elif m == "lui":
            self._write(operands[0], f"{(operands[1] << 12) & _WORD:#x}", "i")
        elif m == "li":
            self._write(operands[0], f"{operands[1] & _WORD:#x}", "i")
        elif m in ("mv", "cmove"):
            rd, rs = operands
            if rd == 0:
                return
            if rs == 0:
                self._write(rd, "_NULL", "c")
            else:
                self._write(rd, f"v{rs}", self.rep[rs])
        elif m == "nop":
            pass
        elif m in _LOADS:
            self._emit_load(operands, pc, *_LOADS[m])
        elif m in _STORES:
            self._emit_store(operands, pc, _STORES[m])
        elif m == "clc":
            self._emit_clc(operands, pc)
        elif m == "csc":
            self._emit_csc(operands, pc)
        elif m == "cgetaddr":
            self._write(operands[0], self._int_of(operands[1]), "i")
        elif m in _CAP_GETTERS:
            self._write(operands[0], _CAP_GETTERS[m](self._cap_of(operands[1])), "i")
        elif m == "ccleartag":
            rd, rs = operands
            if rs and self.rep[rs] == "i":
                # Untagging a NULL-derived value is the identity.
                if rd:
                    self._write(rd, f"v{rs}", "i")
            else:
                self._write(rd, f"{self._cap_of(rs)}.untagged()", "c")
        elif m == "csetaddr":
            rd, rs, rt = operands
            self._guard_point(pc)
            self._write_effectful(
                rd, f"{self._cap_of(rs)}.set_address({self._int_of(rt)})", "c"
            )
        elif m == "cincaddr":
            rd, rs, rt = operands
            self._guard_point(pc)
            self._write_effectful(
                rd, f"{self._cap_of(rs)}.inc_address({_sx(self._int_of(rt))})", "c"
            )
        elif m == "cincaddrimm":
            rd, rs, imm = operands
            self._guard_point(pc)
            self._write_effectful(
                rd, f"{self._cap_of(rs)}.inc_address({imm})", "c"
            )
        elif m in ("csetbounds", "csetboundsexact"):
            rd, rs, rt = operands
            self._guard_point(pc)
            exact = ", exact=True" if m == "csetboundsexact" else ""
            self._write_effectful(
                rd, f"{self._cap_of(rs)}.set_bounds({self._int_of(rt)}{exact})", "c"
            )
        elif m == "csetboundsimm":
            rd, rs, imm = operands
            self._guard_point(pc)
            self._write_effectful(
                rd, f"{self._cap_of(rs)}.set_bounds({imm})", "c"
            )
        elif m == "candperm":
            rd, rs, rt = operands
            self._guard_point(pc)
            self._write_effectful(
                rd,
                f"{self._cap_of(rs)}.and_perms(_from_aw({self._int_of(rt)} & 0xFFF))",
                "c",
            )
        elif m in ("cseal", "cunseal"):
            rd, rs, rt = operands
            self._guard_point(pc)
            op = "seal" if m == "cseal" else "unseal"
            self._write_effectful(
                rd, f"{self._cap_of(rs)}.{op}({self._cap_of(rt)})", "c"
            )
        elif m == "csealentry":
            from .executor import _SENTRY_NAMES  # fully loaded by now

            rd, rs, name = operands
            sentry = _SENTRY_NAMES.get(str(name).lower())
            if sentry is None:
                # The handler raises OTypeFault at execute time; keep
                # that behaviour by leaving the block on the fused tier.
                raise _Unsupported(f"csealentry {name!r}")
            self._guard_point(pc)
            self._write_effectful(
                rd, f"{self._cap_of(rs)}.seal_sentry(_SENTRIES[{sentry.value!r}])", "c"
            )
        elif m == "ctestsubset":
            rd, rs, rt = operands
            big, small = self._cap_of(rs), self._cap_of(rt)
            b, s = self._temp(), self._temp()
            self.emit(f"{b} = {big}")
            self.emit(f"{s} = {small}")
            self._write(
                rd,
                f"(1 if ({b}.tag == {s}.tag and {s}.base >= {b}.base "
                f"and {s}.top <= {b}.top and {s}.perms <= {b}.perms) else 0)",
                "i",
            )
        elif m == "csub":
            rd, rs, rt = operands
            self._write(
                rd, f"({self._int_of(rs)} - {self._int_of(rt)}) & 0xFFFFFFFF", "i"
            )
        elif m == "cram":
            self._write(operands[0], f"_ram({self._int_of(operands[1])})", "i")
        elif m == "crrl":
            self._write(operands[0], f"_rrl({self._int_of(operands[1])})", "i")
        else:  # pragma: no cover - pre-scan already rejected it
            raise _Unsupported(m)

    def _emit_load(self, operands, pc, size, signed) -> None:
        rd, (off, ra) = operands
        self.uses_mem = True
        a = self._emit_mem_checks(pc, ra, off, size, "r")
        # Single-SRAM-bank fast path: outside the MMIO hull and fully
        # inside the bank, the read is a direct bytearray slice —
        # identical to bus.read_word → bank.read_word with the call
        # frames and the (already-guarded) alignment check peeled off.
        t = self._temp()
        self.emit(f"if _b0d is not None and ({a} < _dv0 or {a} >= _dv1) "
                  f"and _b0b <= {a} and {a} + {size} <= _b0e:")
        self.emit(f"    _bst.data_reads += 1")
        self.emit(f"    {t} = {a} - _b0b")
        self.emit(f"    {t} = int.from_bytes(_b0d[{t}:{t} + {size}], 'little')")
        self.emit(f"else:")
        self.emit(f"    {t} = bus.read_word({a}, {size})")
        if rd != 0:
            self._write(rd, t, "i")
            if signed:
                bit = 1 << (8 * size - 1)
                ext = ~((1 << (8 * size)) - 1) & _WORD
                self.emit(f"if v{rd} & {bit:#x}: v{rd} |= {ext:#x}")
        self.emit("stats.loads += 1")

    def _emit_store(self, operands, pc, size) -> None:
        rs, (off, ra) = operands
        self.uses_mem = True
        self.uses_store = True
        a = self._emit_mem_checks(pc, ra, off, size, "w")
        # The store fast path additionally requires (checked once per
        # call, in the preamble) no store snoopers and no dirty hooks
        # beyond the bus's own watch dispatch — and (per store) that the
        # write misses the watch range, so code-range invalidation still
        # goes through the full bus path.
        v = self._int_of(rs)
        mask = (1 << (8 * size)) - 1
        t = self._temp()
        self.emit(f"if _sok and ({a} < _dv0 or {a} >= _dv1) "
                  f"and _b0b <= {a} and {a} + {size} <= _b0e "
                  f"and (_b0h0 is None or {a} >= _w0.hi "
                  f"or {a} + {size} <= _w0.lo):")
        self.emit(f"    _bst.data_writes += 1")
        self.emit(f"    {t} = {a} - _b0b")
        self.emit(f"    _b0d[{t}:{t} + {size}] = "
                  f"({v} & {mask:#x}).to_bytes({size}, 'little')")
        self.emit(f"    _b0g[{t} >> 3] = 0")
        self.emit(f"else:")
        self.emit(f"    bus.write_word({a}, {v}, {size})")
        self.emit(f"_csr.note_store({a})")
        self.emit("stats.stores += 1")

    def _emit_clc(self, operands, pc) -> None:
        rd, (off, ra) = operands
        self.uses_mem = True
        a = self._emit_mem_checks(pc, ra, off, 8, "cr")
        t = self._temp()
        self.emit(f"{t} = _att(bus.read_capability({a}), {self._cap_of(ra)})")
        self.emit("_lf = cpu.load_filter")
        self.emit(f"if _lf is not None: {t} = _lf.filter({t})")
        if rd:
            self._write(rd, t, "c")
        self.emit("stats.cap_loads += 1")

    def _emit_csc(self, operands, pc) -> None:
        rs, (off, ra) = operands
        self.uses_mem = True
        self.uses_store = True
        a = self._emit_mem_checks(pc, ra, off, 8, "cw")
        if rs == 0 or self.rep[rs] == "i":
            # A NULL-derived value is untagged: the store-local check
            # is statically vacuous, exactly as the handler would find.
            self.emit(f"bus.write_capability({a}, {self._cap_of(rs)})")
        else:
            self.emit(f"if v{rs}.tag and v{rs}.is_local and _SL not in "
                      f"v{ra}.perms:")
            self.emit(f"    raise _PermFault("
                      f"'store of local capability requires SL on the authority')")
            self.emit(f"bus.write_capability({a}, v{rs})")
        self.emit(f"_csr.note_store({a})")
        self.emit("stats.cap_stores += 1")

    # -- write-back -----------------------------------------------------

    def _writeback_line(self, reg: int, rep: str) -> str:
        if rep == "i":
            return f"_regs[{reg}] = _null(v{reg})"
        return f"_regs[{reg}] = v{reg}"

    def _emit_success_writeback(self) -> None:
        for reg in sorted(self.wb_events):
            rep = self.wb_events[reg][-1][1]
            self.emit(self._writeback_line(reg, rep))

    def _except_writeback_lines(self) -> List[str]:
        """Per-guard-ordinal write-back tables for the bail path.

        A local's value is visible to a fault at guard ordinal ``_k``
        iff its assignment was emitted before that guard point; the
        representation in force can change along the block, so each
        register gets an ordinal-interval chain.
        """
        out: List[str] = []
        maxk = self.nguards - 1
        for reg in sorted(self.wb_events):
            # Collapse events that land on the same ordinal (the last
            # assignment before a guard point is the visible one).
            events: List[Tuple[int, str]] = []
            for k, rep in self.wb_events[reg]:
                if events and events[-1][0] == k:
                    events[-1] = (k, rep)
                else:
                    events.append((k, rep))
            first = True
            for idx, (k, rep) in enumerate(events):
                if k > maxk:
                    break
                nxt = events[idx + 1][0] if idx + 1 < len(events) else None
                word = "if" if first else "elif"
                first = False
                cond = (f"{k} <= _k" if nxt is None or nxt > maxk
                        else f"{k} <= _k < {nxt}")
                out.append(f"{word} {cond}: {self._writeback_line(reg, rep)}")
        return out

    # -- timing fast paths ----------------------------------------------

    def _charge_lines(self) -> List[str]:
        """The block's batch cycle charge, at tail indentation.

        For the stock :class:`~repro.pipeline.CoreModel` the only
        runtime input to :meth:`~repro.pipeline.CoreModel.charge_block`
        is the pending-load hazard window: when it is idle the entry
        stall is zero and the charge reduces to constant-folded adds
        (and the exit window re-arm).  One attribute test picks between
        that and the full method call — bit-identical by construction,
        since the fast path is ``charge_block`` specialised for
        ``_pending_load_reg is None``.
        """
        if self.timing is None:
            return []
        fl = "_fl" if self.uses_flush else "0"
        if not self.inline_timing:
            return [f"_T.charge_block(_CH, {fl})"]
        ch = self.block.charge
        fast: List[str] = []
        if ch.stall_cycles:
            fast.append(f"    _ts.stall_cycles += {ch.stall_cycles}")
        if ch.bus_beats:
            fast.append(f"    _ts.bus_beats += {ch.bus_beats}")
        if self.uses_flush:
            fast.append(f"    _ts.cycles += {ch.cycles} - _fl")
        else:
            fast.append(f"    _ts.cycles += {ch.cycles}")
        if ch.exit_pending_reg is not None:
            fast.append(f"    _T._pending_load_reg = {ch.exit_pending_reg}")
            fast.append(
                f"    _T._pending_ready_at = _ts.cycles + {ch.exit_ready_offset}"
            )
        return (["if _T._pending_load_reg is None:"] + fast
                + ["else:", f"    _T.charge_block(_CH, {fl})"])

    def _retire_term_lines(self, flavor: str) -> List[str]:
        """The compiled terminator's retire, one of ``taken`` / ``fall``
        / ``jump``.  Branches and jumps have zero bus beats and arm no
        hazard window, so with the window idle the CoreModel retire is a
        single constant add; with it armed (trailing load feeding the
        branch) the full method call resolves the stall."""
        if not self.inline_timing:
            return ["_T.retire(_TINSTR, _TINFO)"]
        p = self.timing.params
        cost = {"taken": 1 + p.branch_taken_penalty, "fall": 1,
                "jump": 1 + p.jump_penalty}[flavor]
        return ["if _T._pending_load_reg is None:",
                f"    _ts.cycles += {cost}",
                "else:",
                "    _T.retire(_TINSTR, _TINFO)"]

    # -- terminator -----------------------------------------------------

    def _try_compile_term(self) -> Optional[List[str]]:
        """Emitted lines for a compiled terminator, or None when the
        terminator must stay interpreted.  Only operations that cannot
        raise are compiled (so they can run after write-back, outside
        the guarded region)."""
        term = self.block.term
        if term is None:
            return None
        _h, operands, instr, _info, t_pc = term
        m = instr.mnemonic
        lines: List[str] = []
        timing = self.timing is not None
        if m in _BRANCH_COND:
            if len(operands) == 3:
                rs, rt, target = operands
                cond = _BRANCH_COND[m](self._term_int(rs), self._term_int(rt))
            else:
                rs, target = operands
                cond = _BRANCH_COND[m](self._term_int(rs), "0")
            taken_pc = self.cpu.code_base + 4 * target
            lines.append(f"stats.branches += 1")
            lines.append(f"if {cond}:")
            lines.append(f"    stats.branches_taken += 1")
            if timing:
                lines.append(f"    _TINFO.branch_taken = True")
                lines.extend("    " + ln
                             for ln in self._retire_term_lines("taken"))
            lines.append(f"    return {taken_pc:#x}")
            lines.append(f"else:")
            if timing:
                lines.append(f"    _TINFO.branch_taken = False")
                lines.extend("    " + ln
                             for ln in self._retire_term_lines("fall"))
            lines.append(f"    return {t_pc + 4:#x}")
        elif m == "j" or (m == "jal" and operands[0] == 0):
            # Link-less jumps write no register and cannot fault; a
            # linking ``jal`` seals a sentry through the live PCC and
            # stays interpreted.
            target = operands[-1]
            lines.append("stats.jumps += 1")
            if timing:
                lines.append("_TINFO.branch_taken = True")
                lines.extend(self._retire_term_lines("jump"))
            lines.append(f"return {self.cpu.code_base + 4 * target:#x}")
        else:
            return None
        return lines

    def _term_int(self, reg: int) -> str:
        """Integer read for the terminator (runs after write-back, but
        the locals still hold the current values)."""
        if reg == 0:
            return "0"
        if reg in self.rep:
            return self._int_of(reg)
        return f"_regs[{reg}].address"

    # -- self-loop trace shape -------------------------------------------

    def _loop_back_edge(self) -> Optional[Tuple[Optional[str], str]]:
        """``(cond, kind)`` when the compiled terminator's taken edge
        targets the block's own start — the trace-loop shape — else
        ``None``.  ``cond`` is the branch condition expression (``None``
        for an unconditional jump) and ``kind`` is ``"branch"`` or
        ``"jump"``."""
        term = self.block.term
        if term is None:
            return None
        _h, operands, instr, _info, _t_pc = term
        m = instr.mnemonic
        if m in _BRANCH_COND:
            target = operands[-1]
            if self.cpu.code_base + 4 * target != self.block.start_pc:
                return None
            if len(operands) == 3:
                cond = _BRANCH_COND[m](self._term_int(operands[0]),
                                       self._term_int(operands[1]))
            else:
                cond = _BRANCH_COND[m](self._term_int(operands[0]), "0")
            return cond, "branch"
        if m == "j" or (m == "jal" and operands[0] == 0):
            target = operands[-1]
            if self.cpu.code_base + 4 * target != self.block.start_pc:
                return None
            return None, "jump"
        return None

    def _loop_exit_cond(self) -> str:
        """Back-edge exit test: return to the executor's dispatch loop
        exactly when the fused chained dispatch would have stopped
        chaining — step budget exhausted, a deliverable interrupt
        pending, or (for blocks whose stores could rewrite their own
        code range) the block invalidated out of the cache mid-loop.
        ``interrupt_pending`` is tested first so the armed checks cost
        one attribute read per iteration in the common case."""
        parts = ["_it >= _max",
                 "(cpu.interrupt_pending is not None and "
                 "cpu.csr.interrupts_enabled and cpu._trap_vector_installed())"]
        if self.uses_mem:
            parts.append(f"_blocks.get({self.block.start_index}) is not _B")
        if self.uses_store and self.cheriot:
            parts.append(f"not (cpu._fetch_lo <= {self.block.start_pc:#x} "
                         f"and {self.block.last_pc:#x} <= cpu._fetch_hi)")
        return " or ".join(parts)

    def _loop_term_lines(self, cond: Optional[str], kind: str) -> List[str]:
        """Terminator + back-edge lines for the trace-loop shape, at the
        loop-body indentation level (the caller indents)."""
        term = self.block.term
        t_pc = term[4]
        timing = self.timing is not None
        start = self.block.start_pc
        lines: List[str] = []
        if kind == "branch":
            lines.append("stats.branches += 1")
            lines.append(f"if {cond}:")
            lines.append("    stats.branches_taken += 1")
            if timing:
                lines.append("    _TINFO.branch_taken = True")
                lines.extend("    " + ln
                             for ln in self._retire_term_lines("taken"))
            lines.append("    _it += 1")
            lines.append(f"    if {self._loop_exit_cond()}:")
            lines.append(f"        return ({start:#x}, _it)")
            lines.append("else:")
            if timing:
                lines.append("    _TINFO.branch_taken = False")
                lines.extend("    " + ln
                             for ln in self._retire_term_lines("fall"))
            lines.append(f"    return ({t_pc + 4:#x}, _it + 1)")
        else:
            lines.append("stats.jumps += 1")
            if timing:
                lines.append("_TINFO.branch_taken = True")
                lines.extend(self._retire_term_lines("jump"))
            lines.append("_it += 1")
            lines.append(f"if {self._loop_exit_cond()}:")
            lines.append(f"    return ({start:#x}, _it)")
        return lines

    # -- driver ----------------------------------------------------------

    def generate(self) -> Tuple[str, int, bool, bool]:
        block = self.block
        instrs = [(e[3].instr, e[1]) for e in block.entries]
        entry = self._entry_reps(
            instrs + ([(block.term[2], block.term[1])] if block.term is not None
                      and block.term[2].mnemonic in _BRANCH_COND else [])
        )
        self.rep = dict(entry)

        body: List[str] = []
        self.lines = body
        pres = [e[4] for e in block.entries]
        for j, e in enumerate(block.entries):
            _handler, operands, pc, info, _pre = e
            self._pre = pres[j] if self.timing is not None else None
            self._emit_instr(info.instr, operands, pc)
            self._pre = None

        term_lines = self._try_compile_term()
        handles_term = term_lines is not None or block.term is None
        back_edge = self._loop_back_edge() if term_lines is not None else None
        n = block.length
        retired = n + (1 if (term_lines is not None and block.term is not None)
                       else 0)
        guarded = self.nguards > 0

        if back_edge is not None:
            src = self._assemble_loop(entry, body, back_edge, retired, guarded)
            return src, retired, True, True

        # ---- straight shape: one execution per call -------------------
        src: List[str] = ["def _jit(cpu):"]
        src.append("    _regs = cpu.regs._regs")
        src.append("    stats = cpu.stats")
        if self.uses_mem:
            src.append("    bus = cpu.bus")
        if self.uses_store:
            src.append("    _csr = cpu.csr")
        if self.uses_mem and not self.cheriot:
            src.append("    _pmp = cpu.pmp")
        src.extend("    " + ln for ln in self._mem_preamble_lines())
        for reg in sorted(entry):
            if entry[reg] == "c":
                src.append(f"    v{reg} = _regs[{reg}]")
            else:
                src.append(f"    v{reg} = _regs[{reg}].address")
        if self.uses_flush:
            src.append("    _fl = 0")
        if guarded:
            src.append("    _k = -1")
            src.append("    try:")
            src.extend(body)
            src.append("    except BaseException:")
            if self.uses_flush:
                src.append("        _ts.cycles -= _fl")
            src.extend("        " + ln for ln in self._except_writeback_lines())
            src.append("        raise")
        else:
            src.extend(ln[4:] for ln in body)  # no try: dedent one level

        tail: List[str] = []
        for reg in sorted(self.wb_events):
            tail.append(self._writeback_line(reg, self.wb_events[reg][-1][1]))
        tail.append(f"stats.instructions += {retired}")
        tail.extend(self._charge_lines())
        if term_lines is not None:
            tail.extend(term_lines)
        elif block.term is None:
            tail.append(f"return {block.start_pc + 4 * n:#x}")
        else:
            tail.append("return -1")
        src.extend("    " + ln for ln in tail)
        src_text = "\n".join(src) + "\n"
        return src_text, retired if handles_term else n, handles_term, False

    def _assemble_loop(self, entry, body, back_edge, retired: int,
                       guarded: bool) -> str:
        """Assemble the trace-loop shape: ``fn(cpu, max_iter)`` iterates
        the block internally and returns ``(next_pc, iterations)``.

        Entry loads and the success write-back run *inside* the loop, so
        every iteration starts and ends regfile-coherent — the fault
        write-back tables and prefix-replay machinery then apply to a
        single iteration exactly as in the straight shape, and the
        ``except`` path additionally records the completed iteration
        count for the executor's step accounting.
        """
        cond, kind = back_edge
        src: List[str] = ["def _jit(cpu, _max):"]
        src.append("    _regs = cpu.regs._regs")
        src.append("    stats = cpu.stats")
        if self.uses_mem:
            src.append("    bus = cpu.bus")
            src.append("    _blocks = cpu._blocks")
        if self.uses_store:
            src.append("    _csr = cpu.csr")
        if self.uses_mem and not self.cheriot:
            src.append("    _pmp = cpu.pmp")
        src.extend("    " + ln for ln in self._mem_preamble_lines())
        src.append("    _it = 0")
        src.append("    while True:")
        for reg in sorted(entry):
            if entry[reg] == "c":
                src.append(f"        v{reg} = _regs[{reg}]")
            else:
                src.append(f"        v{reg} = _regs[{reg}].address")
        if self.uses_flush:
            src.append("        _fl = 0")
        if guarded:
            src.append("        _k = -1")
            src.append("        try:")
            src.extend("    " + ln for ln in body)
            src.append("        except BaseException:")
            if self.uses_flush:
                src.append("            _ts.cycles -= _fl")
            src.append("            cpu._jit_loop_iters = _it")
            src.extend("            " + ln
                       for ln in self._except_writeback_lines())
            src.append("            raise")
        else:
            src.extend(body)  # body already sits at loop-body indent
        tail: List[str] = []
        for reg in sorted(self.wb_events):
            tail.append(self._writeback_line(reg, self.wb_events[reg][-1][1]))
        tail.append(f"stats.instructions += {retired}")
        tail.extend(self._charge_lines())
        tail.extend(self._loop_term_lines(cond, kind))
        src.extend("        " + ln for ln in tail)
        return "\n".join(src) + "\n"


#: Source-text → code-object cache, shared across CPUs.  Benchmark
#: harnesses (and the fleet runner) execute the same image on many fresh
#: CPU instances; the generated source is a pure function of the decoded
#: block and its cost vector, so identical text means an identical code
#: object — only the globals binding (``exec``) is per-block.  CPython's
#: ``compile`` is ~1ms per block, which would otherwise dominate short
#: runs.  Bounded: cleared wholesale when it outgrows the cap (simple,
#: and re-compiling after a clear is exactly the cold path).
_CODE_CACHE: Dict[str, object] = {}
_CODE_CACHE_MAX = 4096

#: Cross-CPU hotness, keyed like the code cache by generated source.
#: Per-block hit counters die with their CPU, so a block that runs a
#: moderate number of times on *every* CPU instance (benchmark
#: repetitions, fleet campaigns) would never cross the threshold on any
#: single one.  The executor reports each multiple of
#: :data:`HEAT_CHECKPOINT` fused executions here; once the accumulated
#: total crosses the CPU's threshold the block compiles — and from then
#: on every fresh CPU adopts it via the first-execution cache probe.
_SOURCE_HEAT: Dict[str, int] = {}
_SOURCE_HEAT_MAX = 16384

#: Fused-execution granularity of cross-CPU heat accounting.
HEAT_CHECKPOINT = 16


def note_block_heat(cpu, block) -> Optional[CompiledBlock]:
    """Accumulate cross-CPU hotness for ``block``; compile when hot.

    Called by the executor each time a block's fused hit counter
    reaches a multiple of :data:`HEAT_CHECKPOINT` (below the per-CPU
    threshold).  Uses the source remembered by the first-execution
    probe; blocks that never probed (JIT disabled at the time) simply
    stay on the per-CPU counter.
    """
    src = block.jit_source
    if src is None:
        return None
    if len(_SOURCE_HEAT) >= _SOURCE_HEAT_MAX:
        _SOURCE_HEAT.clear()
    heat = _SOURCE_HEAT.get(src, 0) + HEAT_CHECKPOINT
    _SOURCE_HEAT[src] = heat
    if heat >= cpu._jit_threshold:
        return compile_block(cpu, block)
    return None


def compile_block(cpu, block, cached_only: bool = False) -> Optional[CompiledBlock]:
    """Compile one hot block; returns the :class:`CompiledBlock` or
    ``None`` (the block is marked uncompilable and stays fused).

    With ``cached_only`` the block is compiled only when its generated
    source is already in the shared code cache — the executor probes
    this on a block's *first* execution, so a program image that was
    already hot on any earlier CPU instance (benchmark repetitions,
    fleet campaigns, re-translation after invalidation) skips the
    warm-up counter entirely.  A miss returns ``None`` without marking
    the block, and the ordinary threshold path still applies.
    """
    from repro.capability import (
        Capability,
        Permission,
        attenuate_loaded,
        from_architectural_word,
        to_architectural_word,
    )
    from repro.capability.bounds import (
        representable_alignment_mask,
        representable_length,
    )
    from repro.capability.errors import PermissionFault
    from repro.capability.otypes import SentryType
    from .exceptions import Trap, TrapCause
    from .executor import _KIND_PERMS, _div_impl, _rem_impl

    try:
        comp = _BlockCompiler(cpu, block)
        src, consumed, handles_term, self_loop = comp.generate()
    except _Unsupported:
        block.jit_failed = True
        cpu.jit_stats.unsupported += 1
        return None

    glb = {
        "_null": Capability.null,
        "_NULL": Capability.null(),
        "_Trap": Trap,
        "_MIS": TrapCause.MISALIGNED,
        "_PermFault": PermissionFault,
        "_att": attenuate_loaded,
        "_SL": Permission.SL,
        "_P_R": _KIND_PERMS["r"],
        "_P_W": _KIND_PERMS["w"],
        "_P_CR": _KIND_PERMS["cr"],
        "_P_CW": _KIND_PERMS["cw"],
        "_from_aw": from_architectural_word,
        "_to_aw": to_architectural_word,
        "_ram": representable_alignment_mask,
        "_rrl": representable_length,
        "_div": _div_impl,
        "_rem": _rem_impl,
        "_SENTRIES": {s.value: s for s in SentryType},
        "_T": block.timing,
        "_CH": block.charge,
        "_ts": block.timing.stats if block.timing is not None else None,
        "_B": block,
    }
    if block.term is not None:
        glb["_TINSTR"] = block.term[2]
        glb["_TINFO"] = block.term[3]
    code = _CODE_CACHE.get(src)
    if code is None:
        if cached_only and _SOURCE_HEAT.get(src, 0) < cpu._jit_threshold:
            # Remember the source so heat checkpoints need not
            # regenerate it; sources already hot across CPU instances
            # compile right now instead of re-warming.
            block.jit_source = src
            return None
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        code = compile(src, f"<tracejit 0x{block.start_pc:08x}>", "exec")
        _CODE_CACHE[src] = code
    exec(code, glb)
    cb = CompiledBlock(glb["_jit"], consumed, handles_term, self_loop, src)
    block.jit = cb
    cpu.jit_stats.compiles += 1
    return cb

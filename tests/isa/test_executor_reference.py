"""The bound-step executor against the handler table it replaced.

``repro.isa.executor`` binds each instruction once into a step that
indexes the register file's ``ints`` and ``caps`` lists.  The reference
below keeps the executor's semantics as they were before: a
string-keyed table of handlers (``_DISPATCH``) that reach each
instruction's operation through a ``CPU`` method and resolve its
operands on every execution, over a register file that holds every
register as a ``Capability`` (``_BoxedRegisterFile``).  ``_ReferenceCPU``
runs them in two modes: interpretive, fetching each instruction with a
full PCC authorization and looking its handler up as it runs; and
fused, through ``CPU``'s own step and block loops.

Hypothesis-built programs — ``test_executor_fuzz``'s chaotic
instructions, and every fusable mnemonic over registers that hold
integers or capabilities, some of them hand-built with operands no
binder can resolve — run on ``CPU`` and on both references in both
execution modes.  After every step the registers as capabilities, the
SCRs, the PC and PCC, the memory's bytes and tags, the trap or error
(type, cause, pc and message), ``ExecStats``, the bus statistics and
the cycles must be equal; so must a whole ``run``.  Programs whose
PCC ends, or is not executable, inside them hold the fused fetch window
to the full authorization.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import (
    Capability,
    Permission,
    SentryType,
    attenuate_loaded,
    from_architectural_word,
    make_roots,
    return_sentry_for_posture,
    to_architectural_word,
)
from repro.capability.errors import (
    CapabilityError,
    OTypeFault,
    PermissionFault,
    SealedFault,
    TagFault,
)
from repro.capability.otypes import FORWARD_SENTRY_OTYPES, RETURN_SENTRY_OTYPES
from repro.isa import (
    CPU,
    ExecutionMode,
    Halted,
    Instruction,
    Program,
    RegisterFile,
    Trap,
    TrapCause,
    assemble,
    trap_from_capability_fault,
)
from repro.isa.blockcache import FUSABLE_MNEMONICS
from repro.isa.csr import CSR_NAMES
from repro.isa.executor import _RetireInfo
from repro.isa.instructions import INSTRUCTION_SPECS
from repro.isa.registers import ABI_NAMES, SCR_NAMES
from repro.memory import MemoryError_, SystemBus, TaggedMemory
from repro.pipeline import CoreKind, make_core_model

from tests.observed import SIDES, on_side

from .test_executor_fuzz import chaotic_instruction

_WORD = 0xFFFFFFFF
_CHERIOT = ExecutionMode.CHERIOT
NUM_REGS = 16

_SENTRY_NAMES = {
    "inherit": SentryType.INHERIT,
    "disable": SentryType.DISABLE_INTERRUPTS,
    "enable": SentryType.ENABLE_INTERRUPTS,
    "ret_dis": SentryType.RETURN_DISABLED,
    "ret_en": SentryType.RETURN_ENABLED,
}


# ----------------------------------------------------------------------
# The reference: the boxed register file and the handler table
# ----------------------------------------------------------------------

_NULL = Capability.null()
_null = Capability.null


class _BoxedRegisterFile:
    """16 capability-width registers plus the SCRs, every integer an
    untagged NULL-derived ``Capability``."""

    __slots__ = ("_regs", "_scrs")

    def __init__(self) -> None:
        self._regs = [Capability.null() for _ in range(NUM_REGS)]
        self._scrs = {
            n: Capability.null() for n in ("mtcc", "mtdc", "mscratchc", "mepcc")
        }

    def read(self, index: int) -> Capability:
        if not 0 <= index < NUM_REGS:
            raise ValueError(f"register index out of range: {index}")
        if index == 0:
            return _NULL
        return self._regs[index]

    def write(self, index: int, value: Capability) -> None:
        if not 0 <= index < NUM_REGS:
            raise ValueError(f"register index out of range: {index}")
        if index == 0:
            return  # writes to zero register are discarded
        self._regs[index] = value

    def read_int(self, index: int) -> int:
        if not 0 <= index < NUM_REGS:
            raise ValueError(f"register index out of range: {index}")
        return self._regs[index].address if index else 0

    def write_int(self, index: int, value: int) -> None:
        if not 0 <= index < NUM_REGS:
            raise ValueError(f"register index out of range: {index}")
        if index:
            self._regs[index] = _null(value & 0xFFFFFFFF)

    def read_scr(self, name: str) -> Capability:
        return self._scrs[name]

    def write_scr(self, name: str, value: Capability) -> None:
        if name not in self._scrs:
            raise ValueError(f"unknown SCR: {name}")
        self._scrs[name] = value

    def snapshot(self):
        return list(self._regs)


def _signed(value: int) -> int:
    value &= _WORD
    return value - (1 << 32) if value & 0x80000000 else value


def _div_impl(a: int, b: int) -> int:
    if b == 0:
        return _WORD
    q = abs(_signed(a)) // abs(_signed(b))
    return -q if (_signed(a) < 0) != (_signed(b) < 0) else q


def _rem_impl(a: int, b: int) -> int:
    if b == 0:
        return a
    return _signed(a) - _signed(b) * _signed(_div_impl(a, b) & _WORD)


class _ReferenceCPU(CPU):
    """A ``CPU`` whose instructions run through the handler table.

    Interpretive by default: every step fetches with a full PCC
    authorization and looks its handler up (:meth:`_step_fast` below),
    and ``run`` never fuses.  With ``fused=True`` it decodes the table
    at load time, as the handler-table executor did, and feeds it to
    ``CPU``'s own step and block loops.
    """

    def __init__(self, *args, fused=False, **kwargs) -> None:
        self.fused = fused  # read by ``_update_fast_path`` at construction
        super().__init__(*args, **kwargs)
        self.regs = _BoxedRegisterFile()

    def _update_fast_path(self) -> None:
        super()._update_fast_path()
        self._fast_loop_ok = self._fast_loop_ok and self.fused

    def load_program(self, program, code_base, pcc=None, entry=""):
        # ``CPU.load_program`` binds ``CPU``'s steps, which need an
        # unboxed register file; the handler table's steps replace them.
        regs, self.regs = self.regs, RegisterFile()
        try:
            super().load_program(program, code_base, pcc, entry)
        finally:
            self.regs = regs
        self._decoded = [
            (_reference_step(instr), instr) for instr in program.instructions
        ]

    def _step_fast(self) -> None:
        """The interpretive step, unless ``fused``: fetch with a full PCC
        authorization, then the handler table's dispatch."""
        if self.fused:
            super()._step_fast()
            return
        if self._pre_step_hook is not None:
            self._pre_step_hook(self)
        if (
            self.interrupt_pending is not None
            and self.csr.interrupts_enabled
            and self._trap_vector_installed()
        ):
            cause = self.interrupt_pending
            self.interrupt_pending = None
            self._vector(Trap(cause, self.pc))
            return
        try:
            instr = self._fetch()
            info = _RetireInfo(self.pc)
            try:
                next_pc = self._execute(instr, self.pc + 4, info)
            except CapabilityError as fault:
                self.stats.traps += 1
                raise trap_from_capability_fault(fault, self.pc) from fault
            except MemoryError_ as fault:
                self.stats.traps += 1
                raise Trap(TrapCause.BUS_FAULT, self.pc, str(fault)) from fault
        except Trap as trap:
            if self._trap_vector_installed():
                self._vector(trap)
                return
            raise
        self.stats.instructions += 1
        if self.timing is not None:
            self.timing.retire(instr, info)
        if self._retire_hooks is not None:
            for hook in self._retire_hooks:
                hook(instr, info)
        self.pc = next_pc

    def _fetch(self) -> Instruction:
        """The instruction at the PC, authorized by the full PCC check.

        The PCC is re-addressed to the PC and checked on every fetch,
        but stored only when the check faults, as ``CPU``'s window miss
        stores it: ``CPU`` re-addresses its PCC only on a miss, and the
        PCC's address is not architectural (every reader — trap
        vectoring, ``auipcc``, the link registers — re-addresses it to
        the PC), so storing it on every fetch would differ from ``CPU``
        in a field nothing reads while the whole PCC is compared.
        """
        index = (self.pc - self.code_base) // 4
        if self.pc % 4 or not 0 <= index < len(self.program.instructions):
            raise Trap(TrapCause.CHERI_BOUNDS, self.pc, "pc outside program")
        if self.mode is ExecutionMode.CHERIOT:
            pcc = self.pcc.set_address(self.pc)
            try:
                pcc.check_access(self.pc, 4, (Permission.EX,))
            except CapabilityError as fault:
                self.pcc = pcc
                raise trap_from_capability_fault(fault, self.pc) from fault
        return self.program.instructions[index]

    def _execute(self, instr: Instruction, next_pc: int, info: _RetireInfo) -> int:
        handler = _DISPATCH.get(instr.mnemonic)
        if handler is None:
            raise Trap(
                TrapCause.ILLEGAL_INSTRUCTION, self.pc, f"no handler: {instr.mnemonic}"
            )
        return handler(self, instr.operands, next_pc, info)

    # --- helpers ---

    def _require_cheriot(self) -> None:
        if self.mode is not ExecutionMode.CHERIOT:
            raise Trap(
                TrapCause.ILLEGAL_INSTRUCTION,
                self.pc,
                "capability instruction in RV32E mode",
            )

    def _mem_address(self, operand, size: int, kind: str):
        """Resolve an ``imm(reg)`` operand and authorize the access.

        Returns the effective address.  ``kind`` is ``"r"`` or ``"w"``
        for data, ``"cr"``/``"cw"`` for capability-width access.

        The authorization runs an exception-free inlined bounds and
        permission test first; only a failing access falls back to
        :meth:`Capability.check_access`, which raises the architectural
        fault in hardware order (tag, seal, permission, bounds).
        """
        offset, reg = operand
        authority = self.regs.read(reg)
        address = (authority.address + offset) & _WORD
        if self.mode is _CHERIOT:
            if not authority.allows(address, size, _KIND_BITS[kind]):
                authority.check_access(address, size, _KIND_PERMS[kind])
        if address & (size - 1):  # sizes are powers of two
            raise Trap(TrapCause.MISALIGNED, self.pc, f"{address:#x} % {size}")
        return address, authority

    def _check_sr(self, what: str) -> None:
        if self.mode is ExecutionMode.CHERIOT and Permission.SR not in self.pcc.perms:
            raise PermissionFault(f"{what} requires SR on PCC")

    # ------------------------------------------------------------------
    # Instruction implementations (registered in _DISPATCH below)
    # ------------------------------------------------------------------

    def _alu_rr(self, ops, next_pc, info, fn):
        rd, rs, rt = ops
        a, b = self.regs.read_int(rs), self.regs.read_int(rt)
        self.regs.write_int(rd, fn(a, b) & _WORD)
        return next_pc

    def _alu_ri(self, ops, next_pc, info, fn):
        rd, rs, imm = ops
        a = self.regs.read_int(rs)
        self.regs.write_int(rd, fn(a, imm) & _WORD)
        return next_pc

    def _branch(self, ops, next_pc, info, fn):
        if len(ops) == 3:
            rs, rt, target = ops
            a, b = self.regs.read_int(rs), self.regs.read_int(rt)
        else:  # beqz / bnez
            rs, target = ops
            a, b = self.regs.read_int(rs), 0
        if fn(a, b):
            info.branch_taken = True
            return self.code_base + 4 * target
        return next_pc

    def _load(self, ops, next_pc, info, size, signed):
        rd, mem = ops
        address, _ = self._mem_address(mem, size, "r")
        value = self.bus.read_word(address, size)
        if signed:
            bit = 1 << (8 * size - 1)
            if value & bit:
                value |= ~((1 << (8 * size)) - 1) & _WORD
        self.regs.write_int(rd, value)
        return next_pc

    def _store(self, ops, next_pc, info, size):
        rs, mem = ops
        address, _ = self._mem_address(mem, size, "w")
        self.bus.write_word(address, self.regs.read_int(rs), size)
        self.csr.note_store(address)
        return next_pc

    def _clc(self, ops, next_pc, info):
        self._require_cheriot()
        rd, mem = ops
        address, authority = self._mem_address(mem, 8, "cr")
        loaded = self.bus.read_capability(address)
        loaded = attenuate_loaded(loaded, authority)
        if self.load_filter is not None:
            loaded = self.load_filter.filter(loaded)
        self.regs.write(rd, loaded)
        return next_pc

    def _csc(self, ops, next_pc, info):
        self._require_cheriot()
        rs, mem = ops
        address, authority = self._mem_address(mem, 8, "cw")
        value = self.regs.read(rs)
        if value.tag and value.is_local and Permission.SL not in authority.perms:
            raise PermissionFault(
                "store of local capability requires SL on the authority"
            )
        self.bus.write_capability(address, value)
        self.csr.note_store(address)
        return next_pc

    def _jump_link(self, rd: int, next_pc: int) -> None:
        """Write the link register: a return sentry in CHERIoT mode."""
        if rd == 0:
            return
        if self.mode is ExecutionMode.CHERIOT:
            link = self.pcc.set_address(next_pc)
            sentry = return_sentry_for_posture(self.csr.interrupts_enabled)
            self.regs.write(rd, link.seal_sentry(sentry))
        else:
            self.regs.write_int(rd, next_pc)

    def _jal(self, ops, next_pc, info):
        rd, target = ops
        self._jump_link(rd, next_pc)
        info.branch_taken = True
        return self.code_base + 4 * target

    def _jalr(self, ops, next_pc, info):
        rd, rs = ops
        info.branch_taken = True
        if self.mode is ExecutionMode.CHERIOT:
            target = self.regs.read(rs)
            if not target.tag:
                raise TagFault("jump target untagged")
            # The link register must capture the *caller's* posture: it
            # is written before any sentry changes it (section 3.1.2,
            # "the sentry type that sets interrupt posture to its
            # current value").
            new_posture = self.csr.interrupts_enabled
            if target.is_sealed:
                if target.otype in FORWARD_SENTRY_OTYPES and target.is_executable:
                    if self.cfi_strict and rd == 0:
                        raise SealedFault(
                            "strict CFI: return consumed a forward sentry"
                        )
                    if target.otype == SentryType.DISABLE_INTERRUPTS:
                        new_posture = False
                    elif target.otype == SentryType.ENABLE_INTERRUPTS:
                        new_posture = True
                    target = target.unseal_for_jump()
                elif target.otype in RETURN_SENTRY_OTYPES and target.is_executable:
                    if self.cfi_strict and rd != 0:
                        raise SealedFault(
                            "strict CFI: call consumed a return sentry"
                        )
                    new_posture = target.otype == SentryType.RETURN_ENABLED
                    target = target.unseal_for_jump()
                else:
                    raise SealedFault("jump to sealed non-sentry capability")
            if Permission.EX not in target.perms:
                raise PermissionFault("jump target lacks EX")
            self._jump_link(rd, next_pc)
            self.csr.interrupts_enabled = new_posture
            self.pcc = target
            return target.address
        self._jump_link(rd, next_pc)
        return self.regs.read_int(rs)

    # --- capability manipulation ---

    def _cap_unop(self, ops, next_pc, info, fn):
        self._require_cheriot()
        rd, rs = ops
        fn(rd, self.regs.read(rs))
        return next_pc

    def _csetbounds(self, ops, next_pc, info, exact):
        self._require_cheriot()
        rd, rs, rt = ops
        length = self.regs.read_int(rt)
        self.regs.write(rd, self.regs.read(rs).set_bounds(length, exact=exact))
        return next_pc

    def _ecall(self, ops, next_pc, info):
        if self.ecall_handler is not None:
            self.ecall_handler(self)
            return next_pc
        self.stats.traps += 1
        raise Trap(TrapCause.ECALL, self.pc)


def _reference_step(instr):
    handler = _DISPATCH.get(instr.mnemonic)
    if handler is None:

        def handler(cpu, ops, npc, info):
            raise Trap(
                TrapCause.ILLEGAL_INSTRUCTION, cpu.pc, f"no handler: {instr.mnemonic}"
            )

    operands = instr.operands
    return lambda cpu, npc, info: handler(cpu, operands, npc, info)


def _build_dispatch():
    import operator

    def sra(a, b):
        return (_signed(a) >> (b & 31)) & _WORD

    div = _div_impl
    rem = _rem_impl

    d = {}

    def rr(name, fn):
        d[name] = lambda cpu, ops, npc, info: cpu._alu_rr(ops, npc, info, fn)

    def ri(name, fn):
        d[name] = lambda cpu, ops, npc, info: cpu._alu_ri(ops, npc, info, fn)

    rr("add", operator.add)
    rr("sub", operator.sub)
    rr("and", operator.and_)
    rr("or", operator.or_)
    rr("xor", operator.xor)
    rr("sll", lambda a, b: a << (b & 31))
    rr("srl", lambda a, b: a >> (b & 31))
    rr("sra", sra)
    rr("slt", lambda a, b: int(_signed(a) < _signed(b)))
    rr("sltu", lambda a, b: int(a < b))
    rr("mul", lambda a, b: (_signed(a) * _signed(b)) & _WORD)
    rr("mulh", lambda a, b: ((_signed(a) * _signed(b)) >> 32) & _WORD)
    rr("mulhu", lambda a, b: ((a * b) >> 32) & _WORD)
    rr("div", div)
    rr("divu", lambda a, b: _WORD if b == 0 else a // b)
    rr("rem", rem)
    rr("remu", lambda a, b: a if b == 0 else a % b)
    ri("addi", operator.add)
    ri("andi", operator.and_)
    ri("ori", operator.or_)
    ri("xori", operator.xor)
    ri("slli", lambda a, b: a << (b & 31))
    ri("srli", lambda a, b: a >> (b & 31))
    ri("srai", sra)
    ri("slti", lambda a, b: int(_signed(a) < b))
    ri("sltiu", lambda a, b: int(a < (b & _WORD)))

    d["lui"] = lambda cpu, ops, npc, info: (
        cpu.regs.write_int(ops[0], (ops[1] << 12) & _WORD),
        npc,
    )[1]
    d["li"] = lambda cpu, ops, npc, info: (
        cpu.regs.write_int(ops[0], ops[1] & _WORD),
        npc,
    )[1]
    d["mv"] = lambda cpu, ops, npc, info: (
        cpu.regs.write(ops[0], cpu.regs.read(ops[1])),
        npc,
    )[1]
    d["nop"] = lambda cpu, ops, npc, info: npc

    def br(name, fn):
        d[name] = lambda cpu, ops, npc, info: cpu._branch(ops, npc, info, fn)

    br("beq", lambda a, b: a == b)
    br("bne", lambda a, b: a != b)
    br("blt", lambda a, b: _signed(a) < _signed(b))
    br("bge", lambda a, b: _signed(a) >= _signed(b))
    br("bltu", lambda a, b: a < b)
    br("bgeu", lambda a, b: a >= b)
    br("beqz", lambda a, b: a == 0)
    br("bnez", lambda a, b: a != 0)

    d["jal"] = _ReferenceCPU._jal
    d["j"] = lambda cpu, ops, npc, info: cpu._jal((0, ops[0]), npc, info)
    d["jalr"] = _ReferenceCPU._jalr
    d["ret"] = lambda cpu, ops, npc, info: cpu._jalr((0, 1), npc, info)

    def ld(name, size, signed):
        d[name] = lambda cpu, ops, npc, info: cpu._load(ops, npc, info, size, signed)

    def st(name, size):
        d[name] = lambda cpu, ops, npc, info: cpu._store(ops, npc, info, size)

    ld("lb", 1, True)
    ld("lbu", 1, False)
    ld("lh", 2, True)
    ld("lhu", 2, False)
    ld("lw", 4, False)
    st("sb", 1)
    st("sh", 2)
    st("sw", 4)
    d["clc"] = _ReferenceCPU._clc
    d["csc"] = _ReferenceCPU._csc

    # --- capability manipulation ---

    def cap(name, fn):
        d[name] = lambda cpu, ops, npc, info: cpu._cap_unop(
            ops, npc, info, lambda rd, cs: fn(cpu, rd, cs)
        )

    cap("cmove", lambda cpu, rd, cs: cpu.regs.write(rd, cs))
    cap("cgetaddr", lambda cpu, rd, cs: cpu.regs.write_int(rd, cs.address))
    cap("cgetbase", lambda cpu, rd, cs: cpu.regs.write_int(rd, cs.base))
    cap("cgettop", lambda cpu, rd, cs: cpu.regs.write_int(rd, min(cs.top, _WORD)))
    cap("cgetlen", lambda cpu, rd, cs: cpu.regs.write_int(rd, min(cs.length, _WORD)))
    cap(
        "cgetperm",
        lambda cpu, rd, cs: cpu.regs.write_int(rd, to_architectural_word(cs.perms)),
    )
    cap("cgettag", lambda cpu, rd, cs: cpu.regs.write_int(rd, int(cs.tag)))
    cap("cgettype", lambda cpu, rd, cs: cpu.regs.write_int(rd, cs.otype))
    cap("ccleartag", lambda cpu, rd, cs: cpu.regs.write(rd, cs.untagged()))

    def _csetaddr(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, rt = ops
        cpu.regs.write(rd, cpu.regs.read(rs).set_address(cpu.regs.read_int(rt)))
        return npc

    def _cincaddr(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, rt = ops
        cpu.regs.write(rd, cpu.regs.read(rs).inc_address(_signed(cpu.regs.read_int(rt))))
        return npc

    def _cincaddrimm(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, imm = ops
        cpu.regs.write(rd, cpu.regs.read(rs).inc_address(imm))
        return npc

    d["csetaddr"] = _csetaddr
    d["cincaddr"] = _cincaddr
    d["cincaddrimm"] = _cincaddrimm
    d["csetbounds"] = lambda cpu, ops, npc, info: cpu._csetbounds(ops, npc, info, False)
    d["csetboundsexact"] = lambda cpu, ops, npc, info: cpu._csetbounds(
        ops, npc, info, True
    )

    def _csetboundsimm(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, imm = ops
        cpu.regs.write(rd, cpu.regs.read(rs).set_bounds(imm))
        return npc

    d["csetboundsimm"] = _csetboundsimm

    def _candperm(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, rt = ops
        mask = from_architectural_word(cpu.regs.read_int(rt) & 0xFFF)
        cpu.regs.write(rd, cpu.regs.read(rs).and_perms(mask))
        return npc

    d["candperm"] = _candperm

    def _cseal(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, rt = ops
        cpu.regs.write(rd, cpu.regs.read(rs).seal(cpu.regs.read(rt)))
        return npc

    def _cunseal(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, rt = ops
        cpu.regs.write(rd, cpu.regs.read(rs).unseal(cpu.regs.read(rt)))
        return npc

    d["cseal"] = _cseal
    d["cunseal"] = _cunseal

    def _csealentry(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, name = ops
        try:
            sentry = _SENTRY_NAMES[name.lower()]
        except KeyError:
            raise OTypeFault(f"unknown sentry type {name!r}") from None
        cpu.regs.write(rd, cpu.regs.read(rs).seal_sentry(sentry))
        return npc

    d["csealentry"] = _csealentry

    def _ctestsubset(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, rt = ops
        big, small = cpu.regs.read(rs), cpu.regs.read(rt)
        ok = (
            big.tag == small.tag
            and small.base >= big.base
            and small.top <= big.top
            and small.perms <= big.perms
        )
        cpu.regs.write_int(rd, int(ok))
        return npc

    d["ctestsubset"] = _ctestsubset

    def _csub(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, rs, rt = ops
        cpu.regs.write_int(
            rd, (cpu.regs.read(rs).address - cpu.regs.read(rt).address) & _WORD
        )
        return npc

    d["csub"] = _csub

    def _cram(cpu, ops, npc, info):
        cpu._require_cheriot()
        from repro.capability.bounds import representable_alignment_mask

        rd, rs = ops
        cpu.regs.write_int(rd, representable_alignment_mask(cpu.regs.read_int(rs)))
        return npc

    def _crrl(cpu, ops, npc, info):
        cpu._require_cheriot()
        from repro.capability.bounds import representable_length

        rd, rs = ops
        cpu.regs.write_int(rd, representable_length(cpu.regs.read_int(rs)))
        return npc

    d["cram"] = _cram
    d["crrl"] = _crrl

    def _cspecialrw(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, scr, rs = ops
        cpu._check_sr(f"cspecialrw {scr}")
        old = cpu.regs.read_scr(scr)
        if rs != 0:
            cpu.regs.write_scr(scr, cpu.regs.read(rs))
        cpu.regs.write(rd, old)
        return npc

    d["cspecialrw"] = _cspecialrw

    def _auipcc(cpu, ops, npc, info):
        cpu._require_cheriot()
        rd, imm = ops
        cpu.regs.write(rd, cpu.pcc.set_address((cpu.pc + (imm << 12)) & _WORD))
        return npc

    d["auipcc"] = _auipcc

    # --- CSRs ---

    _PROTECTED_CSRS = ("mshwm", "mshwmb", "mstatus_mie")

    def _csr_guard(cpu, name):
        if name in _PROTECTED_CSRS:
            cpu._check_sr(f"csr {name}")

    def _csrr(cpu, ops, npc, info):
        rd, name = ops
        _csr_guard(cpu, name)
        cpu.regs.write_int(rd, cpu.csr.read(name))
        return npc

    def _csrw(cpu, ops, npc, info):
        name, rs = ops
        _csr_guard(cpu, name)
        cpu.csr.write(name, cpu.regs.read_int(rs))
        return npc

    def _csrrw(cpu, ops, npc, info):
        rd, name, rs = ops
        _csr_guard(cpu, name)
        old = cpu.csr.read(name)
        cpu.csr.write(name, cpu.regs.read_int(rs))
        cpu.regs.write_int(rd, old)
        return npc

    def _csrsi(cpu, ops, npc, info):
        name, imm = ops
        _csr_guard(cpu, name)
        cpu.csr.write(name, cpu.csr.read(name) | imm)
        return npc

    def _csrci(cpu, ops, npc, info):
        name, imm = ops
        _csr_guard(cpu, name)
        cpu.csr.write(name, cpu.csr.read(name) & ~imm)
        return npc

    d["csrr"] = _csrr
    d["csrw"] = _csrw
    d["csrrw"] = _csrrw
    d["csrsi"] = _csrsi
    d["csrci"] = _csrci

    # --- system ---

    d["ecall"] = _ReferenceCPU._ecall

    def _mret(cpu, ops, npc, info):
        cpu._check_sr("mret")
        epcc = cpu.regs.read_scr("mepcc")
        # Simplified mstatus handling: returning from machine mode
        # re-enables interrupts (MPIE is modelled as always set).
        cpu.csr.interrupts_enabled = True
        if cpu.mode is ExecutionMode.CHERIOT:
            cpu.pcc = epcc
        return epcc.address

    d["mret"] = _mret

    def _wfi(cpu, ops, npc, info):
        return npc

    d["wfi"] = _wfi

    def _halt(cpu, ops, npc, info):
        cpu.stats.instructions += 1
        raise Halted()

    d["halt"] = _halt

    return d


_DISPATCH = _build_dispatch()


#: Combined ``Permission.value`` masks for the fast access check and
#: the ordered permission tuples for the fault-raising fallback.
_KIND_PERMS = {
    "r": (Permission.LD,),
    "w": (Permission.SD,),
    "cr": (Permission.LD, Permission.MC),
    "cw": (Permission.SD, Permission.MC),
}
_KIND_BITS = {
    kind: sum(p.value for p in perms) for kind, perms in _KIND_PERMS.items()
}


# ----------------------------------------------------------------------
# The machine both executors run on
# ----------------------------------------------------------------------

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2000_8000
DATA_SIZE = 0x200

_ROOTS = make_roots()

#: Registers that start out holding capabilities; the rest hold integers.
_DATA = _ROOTS.memory.set_address(DATA_BASE).set_bounds(0x100)
_INITIAL_CAPS = {
    8: _DATA,  # s0: a read/write data window
    9: _DATA.set_address(DATA_BASE + 0x80).set_bounds(0x40).readonly(),  # s1
    3: _DATA.set_address(DATA_BASE + 0x40).set_bounds(0x40).make_local(),  # gp
    4: _DATA.set_address(DATA_BASE + 0x20).set_bounds(0x20).seal(
        _ROOTS.sealing.set_address(5)
    ),  # tp: sealed data
    14: _ROOTS.executable.set_address(CODE_BASE + 8).seal_sentry(
        SentryType.DISABLE_INTERRUPTS
    ),  # a4: a forward sentry into the program
    15: _ROOTS.sealing.set_address(5),  # a5: sealing authority for otype 5
}
_INITIAL_INTS = {
    1: CODE_BASE + 4, 2: DATA_BASE + 0x100, 5: 7, 6: 0xFFFF_FFFC,
    7: 0x8000_0000, 10: DATA_BASE + 0x10, 11: 3, 12: 0x100, 13: 1,
}


def _machine(impl, mode, program, vectored):
    bus = SystemBus()
    bank = bus.attach_sram(TaggedMemory(DATA_BASE, DATA_SIZE))
    cpu = impl(bus, mode)
    cpu.timing = make_core_model(CoreKind.IBEX)
    if mode is _CHERIOT:
        cpu.load_program(program, CODE_BASE, pcc=_ROOTS.executable)
        if vectored:  # traps vector to the program's last instruction
            handler = CODE_BASE + 4 * (len(program.instructions) - 1)
            cpu.regs.write_scr("mtcc", _ROOTS.executable.set_address(handler))
    else:
        cpu.load_program(program, CODE_BASE)
    for index, value in _INITIAL_INTS.items():
        cpu.regs.write_int(index, value)
    for index, cap in _INITIAL_CAPS.items():
        cpu.regs.write(index, cap)
    bank.write_word(DATA_BASE + 0x8, 0x1234_5678)
    bank.write_capability(DATA_BASE + 0x10, _INITIAL_CAPS[9])
    bank.write_capability(DATA_BASE + 0x48, _INITIAL_CAPS[14])
    return cpu, bank


def _observe(cpu, bank):
    """Everything an instruction can change, as values."""
    return (
        cpu.regs.snapshot(),
        [cpu.regs.read_scr(name) for name in SCR_NAMES],
        [cpu.csr.read(name) for name in CSR_NAMES],
        cpu.pc,
        cpu.pcc,
        (cpu.stats.instructions, cpu.stats.traps),
        repr(cpu.bus.stats),
        cpu.timing.cycles,
        bank.read_bytes(bank.base, bank.size),
        list(bank.tagged_granules()),
    )


def _outcome(exc):
    if isinstance(exc, Trap):
        return ("Trap", exc.cause, exc.pc, str(exc))
    return (type(exc).__name__, str(exc))


def _resume(cpu, exc, end):
    """After an error, skip the instruction that raised it; False once
    the program has ended."""
    if isinstance(exc, Halted) or not CODE_BASE <= cpu.pc < end - 4:
        return False
    cpu.pc += 4
    return True


def _stepped(cpu, bank, max_steps=60):
    """Single-step to the end, observing each step; an error is
    recorded and its instruction skipped."""
    end = CODE_BASE + 4 * len(cpu.program.instructions)
    trace = []
    for _ in range(max_steps):
        try:
            cpu.step()
        except Exception as exc:
            trace.append((_outcome(exc), _observe(cpu, bank)))
            if not _resume(cpu, exc, end):
                break
            continue
        trace.append((None, _observe(cpu, bank)))
    return trace


def _ran(cpu, bank, max_steps=60):
    """``run`` to the end, fused blocks where they fit; each error is
    recorded with the state it left, and its instruction skipped."""
    end = CODE_BASE + 4 * len(cpu.program.instructions)
    trace = []
    for _ in range(max_steps):
        try:
            cpu.run(max_steps=max_steps)
        except Exception as exc:
            trace.append((_outcome(exc), _observe(cpu, bank)))
            if not _resume(cpu, exc, end):
                break
            continue
        trace.append((None, _observe(cpu, bank)))
        break
    return trace, cpu.block_stats


#: ``CPU`` and the two references it is held to.
_IMPLS = {
    "cpu": CPU,
    "interpretive": _ReferenceCPU,
    "fused": partial(_ReferenceCPU, fused=True),
}


def _assert_equivalent(program, vectored=False) -> int:
    """``CPU``, single-stepped and run, equals both references in both
    modes: the fused one down to its block statistics, the interpretive
    one, which never fuses, in everything else.  Returns the fused
    blocks ``CPU`` ran."""
    fused = 0
    for mode in ExecutionMode:
        seen = {}
        for name, impl in _IMPLS.items():
            stepped = _stepped(*_machine(impl, mode, program, vectored))
            trace, blocks = _ran(*_machine(impl, mode, program, vectored))
            seen[name] = (stepped, trace, blocks)
        stepped, trace, blocks = seen["cpu"]
        assert seen["interpretive"][:2] == (stepped, trace), (mode, "interpretive")
        assert seen["interpretive"][2].executions == 0
        assert seen["fused"] == seen["cpu"], (mode, "fused")
        fused += blocks.executions
    return fused


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

#: Registers weighted towards the ones holding capabilities.
_OPERAND_REGS = st.sampled_from(
    list(ABI_NAMES) + ["s0", "s0", "s1", "gp", "tp", "a4", "a5"]
)
_IMMS = st.sampled_from([0, 1, 4, 8, 16, 31, 64, 255, 256, 2047, -1, -8, -2048])
_OFFSETS = st.sampled_from([0, 4, 8, 16, 64, 0x7C, 0x80, 0xFC, 0x100, -4, 0x7F8])
_FUSABLE = sorted(FUSABLE_MNEMONICS)


@st.composite
def fusable_instruction(draw):
    """A fusable mnemonic over registers holding integers or capabilities."""
    mnemonic = draw(st.sampled_from(_FUSABLE))
    parts = []
    for kind in INSTRUCTION_SPECS[mnemonic].kinds:
        if kind in ("rd", "rs", "rt"):
            parts.append(draw(_OPERAND_REGS))
        elif kind == "imm":
            parts.append(str(draw(_IMMS)))
        elif kind == "mem":
            parts.append(f"{draw(_OFFSETS)}({draw(_OPERAND_REGS)})")
        else:  # str: a sentry type
            parts.append(draw(st.sampled_from(["inherit", "enable", "junk"])))
    return f"{mnemonic} {', '.join(parts)}".strip()


#: Operands no binder can resolve, by operand kind.
_BAD_REGISTERS = [16, -1, 99, "a0", 3.0, None]
_BAD_MEMORY = [(4, 2, 9), (0, 16), (8, -1), (0, "s0"), "xy"]


@st.composite
def malformed(draw, instr):
    """``instr`` with one operand no binder can resolve, or the wrong
    number of operands."""
    ops = list(instr.operands)
    kinds = instr.spec.kinds
    choice = draw(st.integers(min_value=0, max_value=len(ops)))
    kind = kinds[choice] if choice < len(kinds) else None
    if choice == len(ops):
        if ops and draw(st.booleans()):
            ops.pop()
        else:
            ops.append(draw(st.sampled_from([0, 5, 16])))
    elif kind == "mem":
        ops[choice] = draw(st.sampled_from(_BAD_MEMORY))
    elif kind in ("rd", "rs", "rt"):
        ops[choice] = draw(st.sampled_from(_BAD_REGISTERS))
    else:
        ops.append(0)
    return Instruction(instr.mnemonic, tuple(ops), text=f"malformed {instr.mnemonic}")


@st.composite
def program(draw, line):
    """Lines of ``line``, some of them hand-built malformed, then halt."""
    source = draw(st.lists(line, min_size=1, max_size=14))
    try:
        instructions = list(assemble("\n".join(source) + "\nhalt\n").instructions)
    except Exception:
        instructions = list(assemble("halt\n").instructions)
    for index in draw(st.lists(st.integers(0, len(instructions) - 2), max_size=2)):
        if index >= 0:
            instructions[index] = draw(malformed(instructions[index]))
    return Program(instructions=tuple(instructions), labels={})


class TestBoundStepsEqualTheHandlerTable:
    # A generated program need not fuse, so ``CPU`` must have fused over
    # all of a test's programs.

    def test_chaotic_programs(self):
        fused = []

        @settings(max_examples=40, deadline=None)
        @given(program(chaotic_instruction()), st.booleans())
        def check(prog, vectored):
            fused.append(_assert_equivalent(prog, vectored))

        check()
        assert sum(fused) > 0

    def test_fusable_mnemonics_over_integers_and_capabilities(self):
        fused = []

        @settings(max_examples=40, deadline=None)
        @given(program(fusable_instruction()), st.booleans())
        def check(prog, vectored):
            fused.append(_assert_equivalent(prog, vectored))

        check()
        assert sum(fused) > 0

    @pytest.mark.parametrize("mnemonic", _FUSABLE)
    def test_every_fusable_mnemonic_on_every_register_kind(self, mnemonic):
        kinds = INSTRUCTION_SPECS[mnemonic].kinds
        lines = []
        for reg in ("s0", "t0", "tp", "zero"):
            parts = []
            for kind in kinds:
                if kind in ("rd", "rs", "rt"):
                    parts.append(reg if kind != "rd" else "a0")
                elif kind == "mem":
                    parts.append(f"8({reg})")
                elif kind == "imm":
                    parts.append("16")
                else:
                    parts.append("inherit")
            lines.append(f"{mnemonic} {', '.join(parts)}")
        for line in lines:
            assert _assert_equivalent(assemble(line + "\nhalt\n")) > 0


# ----------------------------------------------------------------------
# The register file against the boxed one
# ----------------------------------------------------------------------

_CAPS = [_null(0), _null(5000), _DATA, _INITIAL_CAPS[4], _INITIAL_CAPS[14],
         _DATA.untagged()]
_INDICES = st.one_of(
    st.integers(min_value=0, max_value=NUM_REGS - 1),
    st.sampled_from([-1, 16, 17, "a0", 2.0]),
)
_OPERATIONS = st.one_of(
    st.tuples(st.just("read"), _INDICES),
    st.tuples(st.just("read_int"), _INDICES),
    st.tuples(st.just("write"), _INDICES, st.sampled_from(_CAPS)),
    st.tuples(
        st.just("write_int"), _INDICES,
        st.integers(min_value=-(1 << 33), max_value=1 << 33),
    ),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("read_scr"), st.sampled_from(list(SCR_NAMES) + ["bogus"])),
    st.tuples(
        st.just("write_scr"), st.sampled_from(list(SCR_NAMES) + ["bogus"]),
        st.sampled_from(_CAPS),
    ),
)


def _apply(regs, operation):
    name, *args = operation
    try:
        return ("ok", getattr(regs, name)(*args))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


class TestRegisterFileEqualsTheBoxedOne:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_OPERATIONS, max_size=40))
    def test_random_operation_sequences(self, operations):
        unboxed, boxed = RegisterFile(), _BoxedRegisterFile()
        for operation in operations:
            assert _apply(unboxed, operation) == _apply(boxed, operation), operation
        assert unboxed.snapshot() == boxed.snapshot()
        assert len(unboxed.snapshot()) == NUM_REGS


# ----------------------------------------------------------------------
# Operands no binder can resolve
# ----------------------------------------------------------------------

#: Hand-built instructions: (instruction, error type, message fragment).
_UNRESOLVABLE = {
    "register out of range": (
        Instruction("add", (10, 16, 11)), ValueError,
        "register index out of range: 16",
    ),
    "negative register": (
        Instruction("sw", (-1, (0, 8))), ValueError,
        "register index out of range: -1",
    ),
    "destination out of range, after the load": (
        Instruction("lw", (16, (8, 8))), ValueError,
        "register index out of range: 16",
    ),
    "non-integer register": (
        Instruction("addi", (10, "a1", 5)), TypeError, "'<=' not supported",
    ),
    "memory base out of range": (
        Instruction("lw", (10, (0, 16))), ValueError,
        "register index out of range: 16",
    ),
    "three-part memory operand": (
        Instruction("sw", (10, (4, 8, 0))), ValueError, "too many values to unpack",
    ),
    "missing operand": (
        Instruction("add", (10, 11)), ValueError, "not enough values to unpack",
    ),
    "bounds fault before the bad destination": (
        Instruction("lw", (16, (0x7FC, 8))), Trap, "cheri-bounds-violation",
    ),
}


def _with(instr, skipped=False):
    """``li a0, 1; li a1, 2``, then ``instr`` (jumped over when
    ``skipped``), then ``halt``."""
    head = assemble("li a0, 1\nli a1, 2\n").instructions
    if skipped:
        head += (Instruction("j", (4,)),)
    return Program(
        instructions=head + (instr,) + assemble("halt\n").instructions,
        labels={},
    )


def _failure(impl, program, side="fused"):
    """``run`` ``program`` on ``impl``, on ``side``: the error it raised
    (None if it halted) and the instructions it retired."""
    cpu = on_side(side, _machine(impl, _CHERIOT, program, vectored=False)[0])
    try:
        cpu.run(max_steps=100)
    except Exception as exc:
        outcome = _outcome(exc)
    else:
        outcome = None
    # Non-vacuity: only the unobserved side fuses.
    assert (cpu.block_stats.executions > 0) is (side == "fused"), side
    return outcome, cpu.stats.instructions


class TestUnresolvableOperands:
    """A hand-built instruction that no binder can resolve loads and
    fails only when reached, fused or observed, with the handler table's
    error and message after the same number of retired instructions."""

    @pytest.mark.parametrize("case", sorted(_UNRESOLVABLE))
    @pytest.mark.parametrize("side", SIDES)
    def test_fails_when_reached_as_the_reference_did(self, case, side):
        instr, error, fragment = _UNRESOLVABLE[case]
        outcome, retired = _failure(CPU, _with(instr), side)
        assert (outcome, retired) == _failure(_IMPLS["fused"], _with(instr))
        assert (outcome, retired) == _failure(
            _IMPLS["interpretive"], _with(instr), "observed"
        )
        assert outcome[0] == error.__name__ and fragment in outcome[-1]
        assert retired == 2

    @pytest.mark.parametrize("case", sorted(_UNRESOLVABLE))
    @pytest.mark.parametrize("side", SIDES)
    def test_never_fails_when_not_reached(self, case, side):
        instr, _, _ = _UNRESOLVABLE[case]
        assert _failure(CPU, _with(instr, skipped=True), side) == (None, 4)

    @pytest.mark.parametrize("side", SIDES)
    def test_equal_operands_of_another_type_bind_apart(self, side):
        # Equal instructions share one bound step; ``1 == 1.0``, but
        # only the float immediate fails, as it did in the reference.
        program = Program(
            instructions=(
                Instruction("addi", (10, 10, 1)),
                Instruction("addi", (10, 10, 1.0)),
                Instruction("halt", ()),
            ),
        )
        outcome, retired = _failure(CPU, program, side)
        assert (outcome, retired) == _failure(_IMPLS["fused"], program)
        assert (outcome, retired) == _failure(
            _IMPLS["interpretive"], program, "observed"
        )
        assert outcome[0] == "TypeError" and retired == 1


# ----------------------------------------------------------------------
# Fetch authorization at the PCC's edges
# ----------------------------------------------------------------------

_EX = _ROOTS.executable

#: Programs whose fetch the PCC refuses partway: (source, PCC, the
#: trap's cause, instructions retired before it, whether ``run`` fuses
#: a block first).  ``s1`` holds a sentry to the sealed case's
#: ``target``.
_FETCH_EDGES = {
    "bounds end, fall-through from a loop": (
        "li a0, 3\nloop: addi a0, a0, -1\nbnez a0, loop\nli a1, 1\nhalt\n",
        _EX.set_address(CODE_BASE).set_bounds(12),
        TrapCause.CHERI_BOUNDS, 7, True,
    ),
    "bounds end, jump past the top": (
        "li a0, 1\nj far\nhalt\nnop\nfar: li a1, 2\nhalt\n",
        _EX.set_address(CODE_BASE).set_bounds(16),
        TrapCause.CHERI_BOUNDS, 2, True,
    ),
    # Below the base the re-addressed PCC is unrepresentable: untagged.
    "bounds start, jump below the base": (
        "top: nop\n_start: li a0, 2\nj top\nhalt\n",
        _EX.set_address(CODE_BASE + 4).set_bounds(12),
        TrapCause.CHERI_TAG, 2, True,
    ),
    # Every block from here on straddles the top, so none runs fused.
    "fused block straddles the top": (
        "li a0, 1\nli a1, 2\nli a2, 3\nli a3, 4\nli a4, 5\nhalt\n",
        _EX.set_address(CODE_BASE).set_bounds(12),
        TrapCause.CHERI_BOUNDS, 3, False,
    ),
    "PCC without EX": (
        "li a0, 1\nhalt\n", _EX.clear_perms(Permission.EX),
        TrapCause.CHERI_PERMISSION, 0, False,
    ),
    "untagged PCC": (
        "li a0, 1\nhalt\n", _EX.untagged(), TrapCause.CHERI_TAG, 0, False,
    ),
    # ``mret`` installs a sealed ``mepcc``; re-addressing it to the PC
    # clears its tag.
    "sealed PCC, reached by mret": (
        "_start: cspecialrw c0, mepcc, s1\nmret\ntarget: li a0, 1\nhalt\n",
        _EX, TrapCause.CHERI_TAG, 2, False,
    ),
}


def _edge_trace(impl, case, stepping):
    """Step (or ``run``) ``case`` to its trap, observing each step."""
    source, pcc, *_ = _FETCH_EDGES[case]
    program = assemble(source)
    bus = SystemBus()
    bank = bus.attach_sram(TaggedMemory(DATA_BASE, DATA_SIZE))
    cpu = impl(bus, _CHERIOT)
    cpu.timing = make_core_model(CoreKind.IBEX)
    entry = "_start" if "_start" in program.labels else ""
    cpu.load_program(program, CODE_BASE, pcc=pcc, entry=entry)
    target = CODE_BASE + 4 * program.labels.get("target", 0)
    cpu.regs.write(9, _EX.set_address(target).seal_sentry(SentryType.INHERIT))
    trace = []
    for _ in range(20):
        try:
            cpu.step() if stepping else cpu.run(max_steps=20)
        except Trap as trap:
            trace.append(((trap.cause, trap.pc, str(trap)), _observe(cpu, bank)))
            return trace, cpu
        trace.append((None, _observe(cpu, bank)))
    raise AssertionError(f"{case}: no trap")


class TestFetchAtThePCCEdges:
    """``CPU`` authorizes a fetch by its cached window; the interpretive
    reference runs the full check on every fetch.  Step by step, and as a
    whole ``run``, they must raise the same trap after the same
    instructions, and leave the same state, PCC included."""

    @pytest.mark.parametrize("case", list(_FETCH_EDGES))
    def test_window_matches_the_full_authorization(self, case):
        reference, _ = _edge_trace(_ReferenceCPU, case, stepping=True)
        assert _edge_trace(CPU, case, stepping=True)[0] == reference
        ran, cpu = _edge_trace(CPU, case, stepping=False)
        assert ran == reference[-1:]
        (cause, _, _), state = reference[-1]
        *_, expected_cause, retired, fuses = _FETCH_EDGES[case]
        assert (cause, state[5][0]) == (expected_cause, retired)
        assert (cpu.block_stats.executions > 0) is fuses

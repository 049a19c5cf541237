"""The CHERIoT CPU: functional execution of assembled programs.

The executor implements the full architectural semantics — capability
checks on every access, load-filter invalidation, sentry jumps,
stack-high-water-mark tracking — while delegating *cycle* accounting to
a pluggable core timing model (:mod:`repro.pipeline`).  It supports two
execution modes so the evaluation can compare like the paper does:

* ``RV32E`` — plain integer addressing, unchecked (the baseline's PMP
  is modelled as gates and power in :mod:`repro.hw`, not as an access
  check);
* ``CHERIOT`` — every access authorized by a capability register, with
  an optional load filter.

Each mnemonic's semantics live in one *binder*, which resolves an
instruction's operands once and returns its step (see "Semantics" below).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Callable, List, Optional

from repro.capability import (
    Capability,
    Permission,
    SentryType,
    attenuate_loaded,
    from_architectural_word,
    representable_alignment_mask,
    representable_length,
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
from repro.capability.otypes import (
    FORWARD_SENTRY_OTYPES,
    RETURN_SENTRY_OTYPES,
)
from repro.memory.bus import SystemBus
from repro.memory.tagged_memory import MemoryError_
from .assembler import Program
from .blockcache import BlockCacheStats, translate_block
from .csr import CSRFile
from .exceptions import Trap, TrapCause, trap_from_capability_fault
from .instructions import Instruction
from .load_filter import LoadFilter
from .registers import NUM_REGS, CheckedRegisters, RegisterFile

_WORD = 0xFFFFFFFF
_null = Capability.null

_SENTRY_NAMES = {
    "inherit": SentryType.INHERIT,
    "disable": SentryType.DISABLE_INTERRUPTS,
    "enable": SentryType.ENABLE_INTERRUPTS,
    "ret_dis": SentryType.RETURN_DISABLED,
    "ret_en": SentryType.RETURN_ENABLED,
}


class ExecutionMode(enum.Enum):
    """Which architecture the core is running."""

    RV32E = "rv32e"
    CHERIOT = "cheriot"


#: Hot-path alias: dereferencing the enum member once per module load
#: beats the two-attribute chain in the per-access authorization check.
_CHERIOT = ExecutionMode.CHERIOT


#: What an executing instruction can raise that becomes an
#: architectural trap: a capability check, or a physical access that no
#: SRAM bank decodes (a bus error, delivered as an access fault the way
#: a load or store to an unmapped address would be on the core).
_INSTRUCTION_FAULTS = (CapabilityError, MemoryError_)
_BLOCK_FAULTS = (Trap,) + _INSTRUCTION_FAULTS


def _fault_trap(fault: Exception, pc: int) -> Trap:
    """The trap for one of :data:`_INSTRUCTION_FAULTS` raised at ``pc``."""
    if isinstance(fault, CapabilityError):
        return trap_from_capability_fault(fault, pc)
    return Trap(TrapCause.BUS_FAULT, pc, str(fault))


class Halted(Exception):
    """Raised by the ``halt`` instruction to end simulation cleanly."""


@dataclass(slots=True)
class ExecStats:
    """Instructions retired and synchronous traps raised by the core.

    Cycles are the timing model's (``cpu.timing.cycles``); the bus
    counts its own memory traffic (``cpu.bus.stats``).
    """

    instructions: int = 0
    traps: int = 0

    def reset(self) -> None:
        # Derived from the dataclass fields so new counters can never be
        # missed (the drift hazard of a hand-maintained list).
        for f in fields(self):
            setattr(self, f.name, 0)


class CPU:
    """A single CHERIoT (or plain RV32E) hart attached to a bus.

    Every instruction is bound once, at :meth:`load_program` time.
    :meth:`run` fuses straight-line runs into superblocks
    (:mod:`repro.isa.blockcache`); where a run cannot fuse, while an
    observer is attached, and for every :meth:`step`, it single-steps
    the bound table.  ``timing`` is a plain attribute holding the core
    timing model (a :class:`~repro.pipeline.CoreModel`) or None.

    Programs are structural (a mnemonic and decoded operands per
    instruction, never bytes in SRAM), so no store, even one into the
    code range, changes what a loaded program executes: cached blocks
    are never invalidated.
    """

    #: Zero; perfbench reads it; ROADMAP's "One host-time harness" deletes it.
    jit_stats = SimpleNamespace(instructions=0, compiles=0, guard_bails=0)

    def __init__(
        self,
        bus: SystemBus,
        mode: ExecutionMode = ExecutionMode.CHERIOT,
        load_filter: Optional[LoadFilter] = None,
        timing=None,
        hwm_enabled: bool = True,
        cfi_strict: bool = False,
    ) -> None:
        self.bus = bus
        self.mode = mode
        self.load_filter = load_filter
        self.timing = timing
        #: Decode-once, execute-many: every instruction is bound to its
        #: step at :meth:`load_program` time (``(step, instr)`` per
        #: instruction).
        self._decoded: Optional[List[tuple]] = None
        #: Superblock translation cache (:mod:`repro.isa.blockcache`),
        #: keyed by decoded index: the run loop fuses straight-line runs
        #: of the decoded table into single-dispatch blocks.  The fused
        #: path is refused per step while any observer is attached
        #: (``pre_step_hook`` or retire hooks), so telemetry and fault
        #: injection always see the ordinary per-instruction stream.
        self._blocks: dict = {}
        self.block_stats = BlockCacheStats()
        #: Cached executable window of the current PCC: instruction fetch
        #: is a two-comparison check while the PC stays inside
        #: ``[_fetch_lo, _fetch_hi]``; any PCC replacement recomputes it
        #: (see the ``pcc`` property).  An impossible window (lo > hi)
        #: forces the slow path, which raises the architectural fault.
        self._fetch_lo = 1
        self._fetch_hi = 0
        #: The paper's footnote 4: later CHERIoT revisions distinguish
        #: forward and backward control-flow arcs.  With ``cfi_strict``
        #: a *call* (``jalr`` writing a link register) may not consume a
        #: return sentry, and a *return* (``jalr`` with rd == zero) may
        #: not consume a forward sentry — killing sentry-reuse gadgets.
        self.cfi_strict = cfi_strict
        self.regs = RegisterFile()
        self.csr = CSRFile(hwm_enabled=hwm_enabled)
        self.stats = ExecStats()
        self.program: Optional[Program] = None
        self.code_base = 0
        self.pc = 0
        self.pcc = Capability.null()
        #: Optional hook invoked by ``ecall`` with the CPU; when None an
        #: ECALL trap is raised instead.
        self.ecall_handler: Optional[Callable[["CPU"], None]] = None
        #: Pending asynchronous interrupt (set by host code or tests);
        #: taken at the next instruction boundary when the interrupt
        #: posture allows — sentries make that posture auditable.
        self.interrupt_pending: Optional[TrapCause] = None
        #: The most recent trap taken through the vector (diagnostics).
        self.last_trap: Optional[Trap] = None
        #: Optional hook called with the CPU before each instruction is
        #: fetched (both execution modes).  Fault-injection campaigns use
        #: it to mutate architectural state at a precise instruction
        #: boundary; a ``None`` hook costs one comparison per step.
        self._pre_step_hook: Optional[Callable[["CPU"], None]] = None
        #: Retire hooks (tracing, profiling): called with ``(instr,
        #: info)`` after the timing model sees each retired instruction.
        #: Stored as a tuple-or-None so the hot step paths pay exactly
        #: one ``is None`` comparison when nothing is attached.
        self._retire_hooks: Optional[tuple] = None
        self._halted = False
        self._update_fast_path()

    # ------------------------------------------------------------------
    # Observer attachment and the cached deopt predicate
    # ------------------------------------------------------------------
    #
    # The run loop's fused-dispatch eligibility ("unobserved") is a
    # single cached flag instead of a predicate re-evaluated every
    # dispatch.  Every site that can change eligibility — the
    # ``pre_step_hook`` property setter and retire-hook install/remove —
    # recomputes it, so a hook installed mid-run (say, by an ``ecall``
    # handler) still deoptimizes from the very next run-loop iteration.

    def _update_fast_path(self) -> None:
        self._fast_loop_ok = (
            self._pre_step_hook is None and self._retire_hooks is None
        )

    @property
    def pre_step_hook(self) -> Optional[Callable[["CPU"], None]]:
        return self._pre_step_hook

    @pre_step_hook.setter
    def pre_step_hook(self, value: Optional[Callable[["CPU"], None]]) -> None:
        self._pre_step_hook = value
        self._update_fast_path()

    def add_retire_hook(self, hook: Callable) -> None:
        """Observe every retired instruction as ``hook(instr, info)``."""
        hooks = self._retire_hooks or ()
        self._retire_hooks = hooks + (hook,)
        self._update_fast_path()

    def remove_retire_hook(self, hook: Callable) -> None:
        # Equality, not identity: a bound method like ``trace.record`` is
        # a fresh object on every attribute access.
        hooks = tuple(h for h in (self._retire_hooks or ()) if h != hook)
        self._retire_hooks = hooks or None
        self._update_fast_path()

    # ------------------------------------------------------------------
    # PCC and its cached fetch window
    # ------------------------------------------------------------------

    @property
    def pcc(self) -> Capability:
        return self._pcc

    @pcc.setter
    def pcc(self, cap: Capability) -> None:
        """Install a PCC and precompute its executable fetch window.

        The fast fetch path relies on the invariant that for a tagged,
        unsealed capability every in-bounds address is representable
        (CHERIoT's correction-table decode reproduces (base, top) for any
        address inside the bounds), so a window hit implies the seed's
        ``set_address`` + ``check_access`` sequence would have succeeded.
        """
        self._pcc = cap
        if cap.tag and not cap.is_sealed and Permission.EX in cap.perms:
            base, top = cap.base, cap.top
            self._fetch_lo = base
            self._fetch_hi = top - 4
        else:
            self._fetch_lo = 1
            self._fetch_hi = 0

    # ------------------------------------------------------------------
    # Program control
    # ------------------------------------------------------------------

    def load_program(
        self,
        program: Program,
        code_base: int,
        pcc: Optional[Capability] = None,
        entry: str = "",
    ) -> None:
        """Install a program and point the PC at its entry label.

        In CHERIoT mode a PCC covering the code region must be supplied;
        instruction fetch is authorized against it.
        """
        self.program = program
        self.code_base = code_base
        index = program.entry(entry) if entry else 0
        self.pc = code_base + 4 * index
        if self.mode is ExecutionMode.CHERIOT:
            if pcc is None:
                raise ValueError("CHERIoT mode requires a PCC")
            self.pcc = pcc.set_address(self.pc)
        self._decoded = _decode_program(self, program)
        self._blocks.clear()
        self._halted = False

    @property
    def halted(self) -> bool:
        return self._halted

    def run(self, max_steps: int = 10_000_000) -> ExecStats:
        """Execute until ``halt`` or the step budget is exhausted.

        With no observer attached (``pre_step_hook`` or retire hooks),
        straight-line runs execute as fused blocks — one dispatch,
        batch-charged stats and cycles, architecturally identical to
        single-stepping.
        Eligibility is the cached ``_fast_loop_ok`` flag, recomputed by
        every observer install/remove site, so a hook installed mid-run
        (say, by an ``ecall`` handler) deoptimizes from the very next
        iteration without the loop re-evaluating the full predicate.
        """
        if self.program is None:
            raise RuntimeError("no program loaded")
        remaining = max_steps
        while remaining > 0:
            try:
                if self._fast_loop_ok:
                    remaining -= self._block_step(remaining)
                else:
                    self._step_fast()
                    remaining -= 1
            except Halted:
                self._halted = True
                return self.stats
        raise RuntimeError(
            f"program exceeded {max_steps} steps "
            f"(pc={self.pc:#010x}, retired={self.stats.instructions})"
        )

    # ------------------------------------------------------------------
    # Single step
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Fetch, execute and retire one instruction.

        Synchronous faults and pending interrupts vector to the trap
        handler named by the ``mtcc`` special capability register when
        one is installed; otherwise the :class:`Trap` propagates to the
        caller (convenient for tests and bare-metal benchmarks).
        """
        if self.program is None:
            raise RuntimeError("no program loaded")
        self._step_fast()

    def _step_fast(self) -> None:
        """Pre-decoded step: the bound step comes from the table built
        at load time; the PCC check is two comparisons while the PC
        stays inside the cached executable window."""
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
        pc = self.pc
        try:
            decoded = self._decoded
            index = (pc - self.code_base) >> 2
            if pc & 3 or not 0 <= index < len(decoded):
                raise Trap(TrapCause.CHERI_BOUNDS, pc, "pc outside program")
            if self.mode is ExecutionMode.CHERIOT and not (
                self._fetch_lo <= pc <= self._fetch_hi
            ):
                self._fetch_pcc_check(pc)
            step, instr = decoded[index]
            info = _RetireInfo(pc)
            try:
                next_pc = step(self, pc + 4, info)
            except _INSTRUCTION_FAULTS as fault:
                self.stats.traps += 1
                raise _fault_trap(fault, pc) from fault
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

    def _fetch_pcc_check(self, pc: int) -> None:
        """Window miss: run the seed's authorization sequence so the
        architectural fault (tag/seal/permission/bounds) is identical."""
        try:
            self.pcc = self._pcc.set_address(pc)
            self._pcc.check_access(pc, 4, (Permission.EX,))
        except CapabilityError as fault:
            raise trap_from_capability_fault(fault, pc) from fault

    # ------------------------------------------------------------------
    # Superblock execution
    # ------------------------------------------------------------------

    def _block_step(self, remaining: int) -> int:
        """One run-loop entry into the translation cache.

        Executes fused blocks *chained* back-to-back — a taken branch
        whose target starts another cached block dispatches it directly,
        without returning to the run loop — and returns the total
        step-budget units consumed, exactly what the same instructions
        would have cost single-stepped (one per retired instruction,
        one for a trap that vectors).  The chain returns to the run loop
        (where the full eligibility check lives) whenever anything that
        could change eligibility might have run: an ``ecall`` terminator
        (its host handler can install hooks or reload the program), any
        single-step fallback, or a trap delivery.  Falls back to
        :meth:`_step_fast` for one instruction whenever the fused path
        cannot be used (non-fusable start, PCC window miss, or a budget
        too small for the whole block).

        While a block runs, ``timing.cycles`` is streamed forward ahead
        of every memory operation (the translation-time pre-flush in
        each entry) so host code reachable from inside the block — MMIO
        device reads, store snoopers — sees the exact cycle count
        single-stepping would have shown it; the final ``charge_block``
        adds only the unstreamed remainder.
        """
        consumed = 0
        blocks = self._blocks
        decoded = self._decoded
        code_base = self.code_base
        cheriot = self.mode is ExecutionMode.CHERIOT
        timing = self.timing
        stats = self.stats
        block_stats = self.block_stats
        while True:
            if (
                self.interrupt_pending is not None
                and self.csr.interrupts_enabled
                and self._trap_vector_installed()
            ):
                cause = self.interrupt_pending
                self.interrupt_pending = None
                self._vector(Trap(cause, self.pc))
                return consumed + 1
            pc = self.pc
            index = (pc - code_base) >> 2
            if pc & 3 or not 0 <= index < len(decoded):
                # Out-of-program fetch: the single-step path raises (or
                # vectors) the architectural trap.
                self._step_fast()
                return consumed + 1
            block = blocks.get(index, _UNTRANSLATED)
            if block is _UNTRANSLATED or (
                block is not None and block.timing is not timing
            ):
                block = translate_block(self, index)
                blocks[index] = block
                if block is not None:
                    block_stats.translations += 1
            if (
                block is None
                or block.steps > remaining - consumed
                or (
                    cheriot
                    and not (
                        self._fetch_lo <= pc and block.last_pc <= self._fetch_hi
                    )
                )
            ):
                block_stats.single_steps += 1
                self._step_fast()
                return consumed + 1
            n = block.length
            block_stats.executions += 1
            flushed = 0
            try:
                for step, ipc, pre in block.entries:
                    self.pc = ipc
                    if pre:
                        timing.cycles += pre
                        flushed += pre
                    step(self, 0, None)
            except _BLOCK_FAULTS as fault:
                if flushed:
                    timing.cycles -= flushed
                return consumed + self._block_fault(
                    block, (self.pc - pc) >> 2, fault
                )
            except BaseException:
                # Non-architectural failure (a simulator bug): commit
                # the retired prefix so diagnostics match
                # single-stepping, then let it propagate.
                if flushed:
                    timing.cycles -= flushed
                self._commit_block_prefix(block, (self.pc - pc) >> 2)
                raise
            # Straight-line run retired: batch-charge counts/cycles.
            stats.instructions += n
            block_stats.instructions += n
            if timing is not None:
                timing.charge_block(block.charge, flushed)
            term = block.term
            if term is None:
                self.pc = pc + 4 * n
                consumed += n
                if consumed >= remaining:
                    return consumed
                continue
            t_step, t_instr, t_info, t_pc = term
            self.pc = t_pc
            t_info.branch_taken = False
            try:
                try:
                    next_pc = t_step(self, t_pc + 4, t_info)
                except _INSTRUCTION_FAULTS as fault:
                    stats.traps += 1
                    raise _fault_trap(fault, t_pc) from fault
            except Trap as trap:
                if self._trap_vector_installed():
                    self._vector(trap)
                    return consumed + block.steps
                raise
            stats.instructions += 1
            block_stats.instructions += 1
            if timing is not None:
                timing.retire(t_instr, t_info)
            self.pc = next_pc
            consumed += block.steps
            if block.term_bails or consumed >= remaining:
                return consumed

    def _block_fault(self, block, k: int, fault) -> int:
        """A fused instruction faulted after ``k`` retired cleanly.

        Replays the retired prefix through the ordinary accounting path
        (``cpu.pc`` already points at the faulting instruction — the
        fused loop keeps it current), then converts and delivers the
        fault exactly as :meth:`_step_fast` would have.
        """
        self._commit_block_prefix(block, k)
        pc = self.pc
        if isinstance(fault, Trap):
            trap = fault
        else:
            self.stats.traps += 1
            trap = _fault_trap(fault, pc)
            trap.__cause__ = fault
        if self._trap_vector_installed():
            self._vector(trap)
            return k + 1
        raise trap

    def _commit_block_prefix(self, block, k: int) -> None:
        """Charge the first ``k`` fused instructions individually.

        Uses the block's static retire stream through the ordinary
        ``retire()`` path, so a partially executed block accounts
        bit-identically to ``k`` single steps.
        """
        if k <= 0:
            return
        self.stats.instructions += k
        self.block_stats.instructions += k
        if self.timing is not None:
            retire = self.timing.retire
            for instr, info in block.pairs[:k]:
                retire(instr, info)

    # ------------------------------------------------------------------
    # Trap vectoring
    # ------------------------------------------------------------------

    def _trap_vector_installed(self) -> bool:
        if self.mode is not ExecutionMode.CHERIOT:
            return False
        mtcc = self.regs.read_scr("mtcc")
        return mtcc.tag and Permission.EX in mtcc.perms

    def _vector(self, trap: Trap) -> None:
        """Take a trap: save state, disable interrupts, enter mtcc."""
        mtcc = self.regs.read_scr("mtcc")
        self.csr.write("mcause", trap.cause.code)
        self.csr.write("mepc", trap.pc)
        self.regs.write_scr("mepcc", self.pcc.set_address(trap.pc))
        self.csr.interrupts_enabled = False
        self.last_trap = trap
        self.pcc = mtcc
        self.pc = mtcc.address
        if self.timing is not None:
            # Pipeline flush + redirect into the handler.
            self.timing.charge(self.timing.params.branch_taken_penalty + 2)


#: ``CPU._blocks`` value of an index not yet translated (``None`` marks
#: one whose instruction cannot start a block).
_UNTRANSLATED = object()


@dataclass(slots=True)
class _RetireInfo:
    """What only execution decides about a retired instruction.

    Handed with the instruction to the timing model and the retire
    hooks; the static hazard facts are fields of the
    :class:`~repro.isa.instructions.Instruction` itself.
    """

    pc: int = 0
    branch_taken: bool = False


# ----------------------------------------------------------------------
# Semantics: one binder per mnemonic
# ----------------------------------------------------------------------
#
# A binder takes the CPU, an instruction's operands and the register
# file's lists, resolves everything static once — register indices,
# immediates, access size and sign, permission masks, the execution
# mode — and returns the instruction's *step*:
# ``step(cpu, next_pc, info) -> next_pc``.  :meth:`CPU.load_program`
# binds every instruction of the decoded table.  A step takes the CPU as
# an argument rather than closing over it, so the decoded table holds no
# reference cycle and a dropped CPU is freed by reference counting.
#
# Steps close over ``regs.ints`` and ``regs.caps`` and may capture the
# CPU's bus, CSR file and mode, which are never replaced after
# construction; the timing model is, so no step touches it.  Each step
# keeps the order of operations of the handler table that
# ``tests/isa/test_executor_reference.py`` holds it to, so a fault —
# capability checks in hardware order (tag, seal, permission, bounds),
# then misalignment — is raised at the same moment with the same
# message.


def _signed(value: int) -> int:
    value &= _WORD
    return value - (1 << 32) if value & 0x80000000 else value


def _div_impl(a: int, b: int) -> int:
    """RV32M ``div`` semantics (round toward zero, div-by-zero → -1)."""
    if b == 0:
        return _WORD
    q = abs(_signed(a)) // abs(_signed(b))
    return -q if (_signed(a) < 0) != (_signed(b) < 0) else q


def _rem_impl(a: int, b: int) -> int:
    """RV32M ``rem`` semantics (sign of the dividend)."""
    if b == 0:
        return a
    return _signed(a) - _signed(b) * _signed(_div_impl(a, b) & _WORD)


def _sra(a: int, b: int) -> int:
    return (_signed(a) >> (b & 31)) & _WORD


def _sll(a: int, b: int) -> int:
    return a << (b & 31)


def _srl(a: int, b: int) -> int:
    return a >> (b & 31)


#: Flipping the sign bit maps signed 32-bit order onto unsigned order.
_SIGN = 0x80000000

#: Register operand kinds of an instruction signature.
_REG_KINDS = frozenset(("rd", "rs", "rt"))


def _resolvable(kinds, ops) -> bool:
    """True when every register operand is an index a step may use as is."""
    if type(ops) is not tuple or len(ops) != len(kinds):
        return False
    for kind, op in zip(kinds, ops):
        if kind == "mem":
            if type(op) is not tuple or len(op) != 2:
                return False
            op = op[1]
        elif kind not in _REG_KINDS:
            continue
        if type(op) is not int or not 0 <= op < NUM_REGS:
            return False
    return True


def _bind(cpu: CPU, instr: Instruction):
    """The step of ``instr`` on ``cpu``.

    An instruction the binder cannot resolve still binds, and fails only
    when it runs: an unknown mnemonic traps as an illegal instruction; a
    register operand out of range or not an integer is checked by the
    step when it touches it (:class:`CheckedRegisters`); an operand
    tuple of the wrong shape raises its unpacking error.  Each is the
    reference handler's error, at the same moment.
    """
    binder = _BINDERS.get(instr.mnemonic)
    if binder is None:
        return _illegal_instruction_step(instr.mnemonic)
    ops = instr.operands
    regs = cpu.regs
    if not _resolvable(instr.spec.kinds, ops):
        regs = CheckedRegisters(regs)
    try:
        return binder(cpu, ops, regs)
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        # An operand the reference rejects only when it runs.
        return _raising_step(exc)


def _raising_step(exc: Exception):
    def step(cpu, npc, info):
        raise exc.with_traceback(None)

    return step


def _illegal_instruction_step(mnemonic: str):
    """Step of a mnemonic without semantics.

    The trap is raised at *execute* time (matching hardware decode — a
    program carrying an unknown instruction only faults if it reaches
    it), with the seed's exact message.
    """

    def step(cpu, npc, info):
        raise Trap(TrapCause.ILLEGAL_INSTRUCTION, cpu.pc, f"no handler: {mnemonic}")

    return step


def _decode_program(cpu: CPU, program: Program) -> "List[tuple]":
    """Decode once, execute many: ``(step, instr)`` per instruction.

    A step depends on its instruction's mnemonic and operands, never on
    where the instruction sits, so equal instructions share one step (a
    CoreMark image has 166 distinct instructions among 475).
    """
    steps = {}
    decoded = []
    for instr in program.instructions:
        key = _step_key(instr)
        step = steps.get(key)
        if step is None:
            step = _bind(cpu, instr)
            if key is not None:
                steps[key] = step
        decoded.append((step, instr))
    return decoded


def _step_key(instr: Instruction):
    """``(mnemonic, operands)`` when every operand is a plain ``int`` or
    ``str``, or a tuple of ``int``s, so that equal keys bind equal
    steps; None for anything else (``1 == 1.0 == True``)."""
    if type(instr.operands) is not tuple:
        return None
    for op in instr.operands:
        kind = type(op)
        if kind is tuple:
            if any(type(part) is not int for part in op):
                return None
        elif kind is not int and kind is not str:
            return None
    return instr.mnemonic, instr.operands


def _cheriot_only(binder):
    """Capability instructions trap in RV32E mode before their operands
    are decoded."""

    def bind(cpu, ops, regs):
        if cpu.mode is not _CHERIOT:
            return _rv32e_step
        return binder(cpu, ops, regs)

    return bind


def _rv32e_step(cpu, npc, info):
    raise Trap(
        TrapCause.ILLEGAL_INSTRUCTION, cpu.pc, "capability instruction in RV32E mode"
    )


def _check_sr(cpu: CPU, what: str) -> None:
    if cpu.mode is _CHERIOT and Permission.SR not in cpu.pcc.perms:
        raise PermissionFault(f"{what} requires SR on PCC")


def _nop_step(cpu, npc, info):
    return npc


# --- integer ALU ---


def _alu_rr(fn):
    def bind(cpu, ops, regs):
        rd, rs, rt = ops
        ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

        def step(cpu, npc, info):
            ints[d] = fn(ints[rs], ints[rt]) & _WORD
            caps[d] = None
            return npc

        return step

    return bind


def _alu_ri(fn):
    def bind(cpu, ops, regs):
        rd, rs, imm = ops
        ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

        def step(cpu, npc, info):
            ints[d] = fn(ints[rs], imm) & _WORD
            caps[d] = None
            return npc

        return step

    return bind


def _signed_less(a: int, b: int) -> bool:
    return (a ^ _SIGN) < (b ^ _SIGN)


def _constant(value):
    """``li``/``lui``: the value is resolved once, at bind time."""

    def bind(cpu, ops, regs):
        rd = ops[0]
        word = value(ops[1])
        ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

        def step(cpu, npc, info):
            ints[d] = word
            caps[d] = None
            return npc

        return step

    return bind


def _bind_mv(cpu, ops, regs):
    return _move(ops[0], ops[1], regs)


@_cheriot_only
def _bind_cmove(cpu, ops, regs):
    rd, rs = ops
    return _move(rd, rs, regs)


def _move(rd, rs, regs):
    """Copy a register, capability and all."""
    ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

    def step(cpu, npc, info):
        cap = caps[rs]
        value = ints[rs]
        ints[d] = value
        caps[d] = cap
        return npc

    return step


# --- control flow ---


def _branch(test, flip=0, unary=False):
    """A conditional branch, taken when ``test(a, b)`` holds for the
    operands with their sign bits flipped by ``flip``.  ``b`` is zero
    for a ``unary`` branch and for any branch written with two operands:
    the reference decides by operand count, so a three-operand unary
    branch still reads ``rt``."""

    def bind(cpu, ops, regs):
        ints = regs.ints
        if len(ops) == 3:
            rs, rt, target = ops
        else:
            (rs, target), rt = ops, None
        base = cpu.code_base
        if rt is None:

            def step(cpu, npc, info):
                if test(ints[rs] ^ flip, flip):
                    info.branch_taken = True
                    return base + 4 * target
                return npc

        else:

            def step(cpu, npc, info):
                a = ints[rs] ^ flip
                b = ints[rt] ^ flip
                if test(a, flip if unary else b):
                    info.branch_taken = True
                    return base + 4 * target
                return npc

        return step

    return bind


def _linker(cpu, rd, regs):
    """The link-register write of a jump, or None when ``rd`` is zero:
    a return sentry in CHERIoT mode, the return address in RV32E."""
    if rd == 0:
        return None
    ints, caps = regs.ints, regs.caps
    if cpu.mode is _CHERIOT:
        csr = cpu.csr

        def link(cpu, next_pc):
            cap = cpu.pcc.set_address(next_pc)
            sentry = return_sentry_for_posture(csr.interrupts_enabled)
            cap = cap.seal_sentry(sentry)
            ints[rd] = cap.address
            caps[rd] = cap

    else:

        def link(cpu, next_pc):
            ints[rd] = next_pc & _WORD
            caps[rd] = None

    return link


def _bind_jal(cpu, ops, regs):
    rd, target = ops
    return _jump(cpu, rd, target, regs)


def _bind_j(cpu, ops, regs):
    return _jump(cpu, 0, ops[0], regs)


def _jump(cpu, rd, target, regs):
    link = _linker(cpu, rd, regs)
    base = cpu.code_base
    if link is None:

        def step(cpu, npc, info):
            info.branch_taken = True
            return base + 4 * target

    else:

        def step(cpu, npc, info):
            link(cpu, npc)
            info.branch_taken = True
            return base + 4 * target

    return step


def _bind_jalr(cpu, ops, regs):
    rd, rs = ops
    return _jump_register(cpu, rd, rs, regs)


def _bind_ret(cpu, ops, regs):
    return _jump_register(cpu, 0, 1, regs)


def _jump_register(cpu, rd, rs, regs):
    """``jalr``: a capability jump (sentries, interrupt posture, strict
    CFI) in CHERIoT mode, an integer jump in RV32E."""
    ints, caps = regs.ints, regs.caps
    link = _linker(cpu, rd, regs)
    if cpu.mode is not _CHERIOT:

        def step(cpu, npc, info):
            info.branch_taken = True
            if link is not None:
                link(cpu, npc)
            return ints[rs]

        return step
    csr = cpu.csr

    def step(cpu, npc, info):
        info.branch_taken = True
        target = caps[rs]
        if target is None or not target.tag:
            raise TagFault("jump target untagged")
        # The link register must capture the *caller's* posture: it is
        # written before any sentry changes it (section 3.1.2, "the
        # sentry type that sets interrupt posture to its current
        # value").
        new_posture = csr.interrupts_enabled
        if target.is_sealed:
            otype = target.otype
            if otype in FORWARD_SENTRY_OTYPES and target.is_executable:
                if cpu.cfi_strict and rd == 0:
                    raise SealedFault("strict CFI: return consumed a forward sentry")
                if otype == SentryType.DISABLE_INTERRUPTS:
                    new_posture = False
                elif otype == SentryType.ENABLE_INTERRUPTS:
                    new_posture = True
                target = target.unseal_for_jump()
            elif otype in RETURN_SENTRY_OTYPES and target.is_executable:
                if cpu.cfi_strict and rd != 0:
                    raise SealedFault("strict CFI: call consumed a return sentry")
                new_posture = otype == SentryType.RETURN_ENABLED
                target = target.unseal_for_jump()
            else:
                raise SealedFault("jump to sealed non-sentry capability")
        if Permission.EX not in target.perms:
            raise PermissionFault("jump target lacks EX")
        if link is not None:
            link(cpu, npc)
        csr.interrupts_enabled = new_posture
        cpu.pcc = target
        return target.address

    return step


# --- memory ---

#: The permissions each kind of access needs, in the order the
#: fault-raising fallback checks them (the fault names the first one
#: missing); the fast test takes their combined mask (:func:`_bits`).
_LD = (Permission.LD,)
_SD = (Permission.SD,)
_CR = (Permission.LD, Permission.MC)
_CW = (Permission.SD, Permission.MC)


def _bits(perms) -> int:
    """The combined ``Permission.value`` mask of ``perms``."""
    return sum(p.value for p in perms)


def _deny(auth, value, address, size, perms):
    """The access check of an ``imm(reg)`` operand, for a step whose
    fast test failed: a NULL-derived integer, or a capability that
    :meth:`Capability.allows` refused.  Raises the architectural fault in
    hardware order (tag, seal, permission, bounds) through
    :meth:`Capability.check_access`."""
    (auth or _null(value)).check_access(address, size, perms)


def _load(size: int, signed: bool):
    sign_bit = 1 << (8 * size - 1) if signed else 0
    extend = ~((1 << (8 * size)) - 1) & _WORD
    align = size - 1
    need = _bits(_LD)

    def bind(cpu, ops, regs):
        rd, (offset, base) = ops
        ints, caps, d = regs.ints, regs.caps, regs.dest(rd)
        read_word = cpu.bus.read_word
        checked = cpu.mode is _CHERIOT

        def step(cpu, npc, info):
            auth = caps[base]
            address = (ints[base] + offset) & _WORD
            if checked and (auth is None or not auth.allows(address, size, need)):
                _deny(auth, ints[base], address, size, _LD)
            if address & align:
                raise Trap(TrapCause.MISALIGNED, cpu.pc, f"{address:#x} % {size}")
            value = read_word(address, size)
            if value & sign_bit:
                value |= extend
            ints[d] = value
            caps[d] = None
            return npc

        return step

    return bind


def _store(size: int):
    align = size - 1
    need = _bits(_SD)

    def bind(cpu, ops, regs):
        rs, (offset, base) = ops
        ints, caps = regs.ints, regs.caps
        write_word = cpu.bus.write_word
        note_store = cpu.csr.note_store
        checked = cpu.mode is _CHERIOT

        def step(cpu, npc, info):
            auth = caps[base]
            address = (ints[base] + offset) & _WORD
            if checked and (auth is None or not auth.allows(address, size, need)):
                _deny(auth, ints[base], address, size, _SD)
            if address & align:
                raise Trap(TrapCause.MISALIGNED, cpu.pc, f"{address:#x} % {size}")
            write_word(address, ints[rs], size)
            note_store(address)
            return npc

        return step

    return bind


@_cheriot_only
def _bind_clc(cpu, ops, regs):
    rd, (offset, base) = ops
    ints, caps, d = regs.ints, regs.caps, regs.dest(rd)
    read_capability = cpu.bus.read_capability
    need = _bits(_CR)

    def step(cpu, npc, info):
        auth = caps[base]
        address = (ints[base] + offset) & _WORD
        if auth is None or not auth.allows(address, 8, need):
            _deny(auth, ints[base], address, 8, _CR)
        if address & 7:
            raise Trap(TrapCause.MISALIGNED, cpu.pc, f"{address:#x} % 8")
        loaded = attenuate_loaded(read_capability(address), auth)
        load_filter = cpu.load_filter
        if load_filter is not None:
            loaded = load_filter.filter(loaded)
        ints[d] = loaded.address
        caps[d] = loaded
        return npc

    return step


@_cheriot_only
def _bind_csc(cpu, ops, regs):
    rs, (offset, base) = ops
    ints, caps = regs.ints, regs.caps
    write_capability = cpu.bus.write_capability
    note_store = cpu.csr.note_store
    need = _bits(_CW)

    def step(cpu, npc, info):
        auth = caps[base]
        address = (ints[base] + offset) & _WORD
        if auth is None or not auth.allows(address, 8, need):
            _deny(auth, ints[base], address, 8, _CW)
        if address & 7:
            raise Trap(TrapCause.MISALIGNED, cpu.pc, f"{address:#x} % 8")
        value = caps[rs] or _null(ints[rs])
        if (
            value.tag
            and Permission.GL not in value.perms
            and Permission.SL not in auth.perms
        ):
            raise PermissionFault(
                "store of local capability requires SL on the authority"
            )
        write_capability(address, value)
        note_store(address)
        return npc

    return step


# --- capability manipulation ---


def _cap_get(get):
    """An integer read of one capability field (``cgetaddr``, ...)."""

    @_cheriot_only
    def bind(cpu, ops, regs):
        rd, rs = ops
        ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

        def step(cpu, npc, info):
            ints[d] = get(caps[rs] or _null(ints[rs])) & _WORD
            caps[d] = None
            return npc

        return step

    return bind


def _cap_binary(derive, rt_kind):
    """A capability derived from ``rs`` and register ``rt``.

    ``rt_kind`` is how ``rt`` is read: ``"int"`` after ``rs``,
    ``"int-first"`` before ``rs`` (as the reference's ``csetbounds`` and
    ``candperm`` read it), or ``"cap"`` as a capability after ``rs``.
    """

    @_cheriot_only
    def bind(cpu, ops, regs):
        rd, rs, rt = ops
        ints, caps, d = regs.ints, regs.caps, regs.dest(rd)
        if rt_kind == "int":

            def step(cpu, npc, info):
                cap = derive(caps[rs] or _null(ints[rs]), ints[rt])
                ints[d] = cap.address
                caps[d] = cap
                return npc

        elif rt_kind == "int-first":

            def step(cpu, npc, info):
                value = ints[rt]
                cap = derive(caps[rs] or _null(ints[rs]), value)
                ints[d] = cap.address
                caps[d] = cap
                return npc

        else:

            def step(cpu, npc, info):
                cap = derive(caps[rs] or _null(ints[rs]), caps[rt] or _null(ints[rt]))
                ints[d] = cap.address
                caps[d] = cap
                return npc

        return step

    return bind


def _cap_imm(derive):
    """A capability derived from ``rs`` and an immediate."""

    @_cheriot_only
    def bind(cpu, ops, regs):
        rd, rs, imm = ops
        ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

        def step(cpu, npc, info):
            cap = derive(caps[rs] or _null(ints[rs]), imm)
            ints[d] = cap.address
            caps[d] = cap
            return npc

        return step

    return bind


def _cap_unary(derive):
    """A capability derived from ``rs`` alone (``ccleartag``)."""

    @_cheriot_only
    def bind(cpu, ops, regs):
        rd, rs = ops
        ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

        def step(cpu, npc, info):
            cap = derive(caps[rs] or _null(ints[rs]))
            ints[d] = cap.address
            caps[d] = cap
            return npc

        return step

    return bind


@_cheriot_only
def _bind_csealentry(cpu, ops, regs):
    rd, rs, name = ops
    try:
        sentry = _SENTRY_NAMES[name.lower()]
    except KeyError:
        sentry = None
    ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

    def step(cpu, npc, info):
        if sentry is None:
            raise OTypeFault(f"unknown sentry type {name!r}")
        cap = (caps[rs] or _null(ints[rs])).seal_sentry(sentry)
        ints[d] = cap.address
        caps[d] = cap
        return npc

    return step


@_cheriot_only
def _bind_ctestsubset(cpu, ops, regs):
    rd, rs, rt = ops
    ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

    def step(cpu, npc, info):
        big = caps[rs] or _null(ints[rs])
        small = caps[rt] or _null(ints[rt])
        ok = (
            big.tag == small.tag
            and small.base >= big.base
            and small.top <= big.top
            and small.perms <= big.perms
        )
        ints[d] = int(ok)
        caps[d] = None
        return npc

    return step


@_cheriot_only
def _bind_cspecialrw(cpu, ops, regs):
    rd, scr, rs = ops
    ints, caps, d = regs.ints, regs.caps, regs.dest(rd)
    what = f"cspecialrw {scr}"
    write_back = rs != 0

    def step(cpu, npc, info):
        _check_sr(cpu, what)
        old = cpu.regs.read_scr(scr)
        if write_back:
            cpu.regs.write_scr(scr, caps[rs] or _null(ints[rs]))
        ints[d] = old.address
        caps[d] = old
        return npc

    return step


@_cheriot_only
def _bind_auipcc(cpu, ops, regs):
    rd, imm = ops
    ints, caps, d = regs.ints, regs.caps, regs.dest(rd)

    def step(cpu, npc, info):
        cap = cpu.pcc.set_address((cpu.pc + (imm << 12)) & _WORD)
        ints[d] = cap.address
        caps[d] = cap
        return npc

    return step


# --- CSRs ---

#: CSRs whose access needs SR on the PCC.
_PROTECTED_CSRS = ("mshwm", "mshwmb", "mstatus_mie")


def _csr_guard(name):
    """What the SR check of an access to CSR ``name`` reports, or None
    when the CSR is not protected."""
    return f"csr {name}" if name in _PROTECTED_CSRS else None


def _bind_csrr(cpu, ops, regs):
    rd, name = ops
    guard = _csr_guard(name)
    ints, caps, d = regs.ints, regs.caps, regs.dest(rd)
    csr = cpu.csr

    def step(cpu, npc, info):
        if guard is not None:
            _check_sr(cpu, guard)
        ints[d] = csr.read(name) & _WORD
        caps[d] = None
        return npc

    return step


def _bind_csrw(cpu, ops, regs):
    name, rs = ops
    guard = _csr_guard(name)
    ints = regs.ints
    csr = cpu.csr

    def step(cpu, npc, info):
        if guard is not None:
            _check_sr(cpu, guard)
        csr.write(name, ints[rs])
        return npc

    return step


def _bind_csrrw(cpu, ops, regs):
    rd, name, rs = ops
    guard = _csr_guard(name)
    ints, caps, d = regs.ints, regs.caps, regs.dest(rd)
    csr = cpu.csr

    def step(cpu, npc, info):
        if guard is not None:
            _check_sr(cpu, guard)
        old = csr.read(name)
        csr.write(name, ints[rs])
        ints[d] = old & _WORD
        caps[d] = None
        return npc

    return step


def _csr_imm(update):
    """``csrsi``/``csrci``: read-modify-write with an immediate."""

    def bind(cpu, ops, regs):
        name, imm = ops
        guard = _csr_guard(name)
        csr = cpu.csr

        def step(cpu, npc, info):
            if guard is not None:
                _check_sr(cpu, guard)
            csr.write(name, update(csr.read(name), imm))
            return npc

        return step

    return bind


# --- system ---


def _ecall_step(cpu, npc, info):
    if cpu.ecall_handler is not None:
        cpu.ecall_handler(cpu)
        return npc
    cpu.stats.traps += 1
    raise Trap(TrapCause.ECALL, cpu.pc)


def _mret_step(cpu, npc, info):
    _check_sr(cpu, "mret")
    epcc = cpu.regs.read_scr("mepcc")
    # Simplified mstatus handling: returning from machine mode
    # re-enables interrupts (MPIE is modelled as always set).
    cpu.csr.interrupts_enabled = True
    if cpu.mode is _CHERIOT:
        cpu.pcc = epcc
    return epcc.address


def _halt_step(cpu, npc, info):
    cpu.stats.instructions += 1
    raise Halted()


def _fixed(step):
    """Binder of an instruction that reads no operand."""
    return lambda cpu, ops, regs: step


_BINDERS = {
    # --- integer ALU ---
    "add": _alu_rr(operator.add),
    "sub": _alu_rr(operator.sub),
    "and": _alu_rr(operator.and_),
    "or": _alu_rr(operator.or_),
    "xor": _alu_rr(operator.xor),
    "sll": _alu_rr(_sll),
    "srl": _alu_rr(_srl),
    "sra": _alu_rr(_sra),
    "slt": _alu_rr(_signed_less),
    "sltu": _alu_rr(operator.lt),
    # The low word of a product does not depend on the operands' signs.
    "mul": _alu_rr(operator.mul),
    "mulh": _alu_rr(lambda a, b: (_signed(a) * _signed(b)) >> 32),
    "mulhu": _alu_rr(lambda a, b: (a * b) >> 32),
    "div": _alu_rr(_div_impl),
    "divu": _alu_rr(lambda a, b: _WORD if b == 0 else a // b),
    "rem": _alu_rr(_rem_impl),
    "remu": _alu_rr(lambda a, b: a if b == 0 else a % b),
    "addi": _alu_ri(operator.add),
    "andi": _alu_ri(operator.and_),
    "ori": _alu_ri(operator.or_),
    "xori": _alu_ri(operator.xor),
    "slli": _alu_ri(_sll),
    "srli": _alu_ri(_srl),
    "srai": _alu_ri(_sra),
    "slti": _alu_ri(lambda a, b: _signed(a) < b),
    "sltiu": _alu_ri(lambda a, b: a < (b & _WORD)),
    "lui": _constant(lambda imm: (imm << 12) & _WORD),
    "li": _constant(lambda imm: imm & _WORD),
    "mv": _bind_mv,
    "nop": _fixed(_nop_step),
    # --- control flow ---
    "beq": _branch(operator.eq),
    "bne": _branch(operator.ne),
    "blt": _branch(operator.lt, _SIGN),
    "bge": _branch(operator.ge, _SIGN),
    "bltu": _branch(operator.lt),
    "bgeu": _branch(operator.ge),
    "beqz": _branch(operator.eq, unary=True),
    "bnez": _branch(operator.ne, unary=True),
    "jal": _bind_jal,
    "j": _bind_j,
    "jalr": _bind_jalr,
    "ret": _bind_ret,
    # --- memory ---
    "lb": _load(1, True),
    "lbu": _load(1, False),
    "lh": _load(2, True),
    "lhu": _load(2, False),
    "lw": _load(4, False),
    "sb": _store(1),
    "sh": _store(2),
    "sw": _store(4),
    "clc": _bind_clc,
    "csc": _bind_csc,
    # --- capability manipulation ---
    "cmove": _bind_cmove,
    "cgetaddr": _cap_get(operator.attrgetter("address")),
    "cgetbase": _cap_get(operator.attrgetter("base")),
    "cgettop": _cap_get(lambda cs: min(cs.top, _WORD)),
    "cgetlen": _cap_get(lambda cs: min(cs.length, _WORD)),
    "cgetperm": _cap_get(lambda cs: to_architectural_word(cs.perms)),
    "cgettag": _cap_get(lambda cs: int(cs.tag)),
    "cgettype": _cap_get(operator.attrgetter("otype")),
    "ccleartag": _cap_unary(lambda cs: cs.untagged()),
    "csetaddr": _cap_binary(lambda cs, address: cs.set_address(address), "int"),
    "cincaddr": _cap_binary(lambda cs, delta: cs.inc_address(_signed(delta)), "int"),
    "cincaddrimm": _cap_imm(lambda cs, imm: cs.inc_address(imm)),
    "csetbounds": _cap_binary(lambda cs, length: cs.set_bounds(length), "int-first"),
    "csetboundsexact": _cap_binary(
        lambda cs, length: cs.set_bounds(length, exact=True), "int-first"
    ),
    "csetboundsimm": _cap_imm(lambda cs, imm: cs.set_bounds(imm)),
    "candperm": _cap_binary(
        lambda cs, word: cs.and_perms(from_architectural_word(word & 0xFFF)),
        "int-first",
    ),
    "cseal": _cap_binary(lambda cs, authority: cs.seal(authority), "cap"),
    "cunseal": _cap_binary(lambda cs, authority: cs.unseal(authority), "cap"),
    "csealentry": _bind_csealentry,
    "ctestsubset": _bind_ctestsubset,
    "csub": _cheriot_only(_alu_rr(operator.sub)),
    "cram": _cap_get(lambda cs: representable_alignment_mask(cs.address)),
    "crrl": _cap_get(lambda cs: representable_length(cs.address)),
    "cspecialrw": _bind_cspecialrw,
    "auipcc": _bind_auipcc,
    # --- CSRs ---
    "csrr": _bind_csrr,
    "csrw": _bind_csrw,
    "csrrw": _bind_csrrw,
    "csrsi": _csr_imm(operator.or_),
    "csrci": _csr_imm(lambda value, imm: value & ~imm),
    # --- system ---
    "ecall": _fixed(_ecall_step),
    "mret": _fixed(_mret_step),
    "wfi": _fixed(_nop_step),
    "halt": _fixed(_halt_step),
}

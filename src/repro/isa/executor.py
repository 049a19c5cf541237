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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Callable, List, Optional

from repro.capability import (
    Capability,
    Permission,
    SentryType,
    attenuate_loaded,
    from_architectural_word,
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
from .registers import RegisterFile

_WORD = 0xFFFFFFFF

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


class Tier(enum.Enum):
    """How the executor runs a program: the reference, then the fast tier.

    :attr:`FUSED` is observationally identical to :attr:`INTERP`; the
    differential suites loop over both to hold it to that.
    """

    #: The seed's interpretive step: string-keyed dispatch and a full
    #: PCC authorization per fetch — the reference semantics.
    INTERP = "interp"
    #: Handlers and operands resolved once at :meth:`CPU.load_program`
    #: time, straight-line runs fused into superblocks
    #: (:mod:`repro.isa.blockcache`); the default.  Where a run cannot
    #: fuse, and for every :meth:`CPU.step`, it single-steps the
    #: pre-decoded table.
    FUSED = "fused"


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


class CPU:
    """A single CHERIoT (or plain RV32E) hart attached to a bus.

    ``tier`` picks how programs run (:class:`Tier`; the default is the
    fast tier, :attr:`Tier.FUSED`).  ``timing`` is a plain attribute
    holding the core timing model (a :class:`~repro.pipeline.CoreModel`)
    or None.

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
        tier: Tier = Tier.FUSED,
    ) -> None:
        self.bus = bus
        self.mode = mode
        self.load_filter = load_filter
        self.timing = timing
        self.tier = tier
        #: Decode-once, execute-many: at :attr:`Tier.FUSED` the handler
        #: and operand metadata of every instruction are resolved at
        #: :meth:`load_program` time.
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
    # The run loop's fused-dispatch eligibility ("pre-decoded and
    # unobserved") is a single cached flag instead of a three-clause
    # predicate re-evaluated every dispatch.  Every site that can change
    # eligibility — the ``pre_step_hook`` property setter, retire-hook
    # install/remove, and ``load_program`` — recomputes it, so a hook
    # installed mid-run (say, by an ``ecall`` handler) still deoptimizes
    # from the very next run-loop iteration.

    def _update_fast_path(self) -> None:
        self._fast_loop_ok = (
            self._decoded is not None
            and self._pre_step_hook is None
            and self._retire_hooks is None
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
        self._decoded = (
            None if self.tier is Tier.INTERP else _decode_program(program)
        )
        self._blocks.clear()
        self._halted = False
        self._update_fast_path()

    @property
    def halted(self) -> bool:
        return self._halted

    def run(self, max_steps: int = 10_000_000) -> ExecStats:
        """Execute until ``halt`` or the step budget is exhausted.

        At :attr:`Tier.FUSED`, with no observer attached
        (``pre_step_hook`` or retire hooks), straight-line runs execute
        as fused blocks — one dispatch, batch-charged stats and cycles,
        architecturally identical to single-stepping.
        Eligibility is the cached ``_fast_loop_ok`` flag, recomputed by
        every observer install/remove site, so a hook installed mid-run
        (say, by an ``ecall`` handler) deoptimizes from the very next
        iteration without the loop re-evaluating the full predicate.
        """
        remaining = max_steps
        while remaining > 0:
            try:
                if self._fast_loop_ok:
                    remaining -= self._block_step(remaining)
                else:
                    if self._decoded is not None:
                        self._step_fast()
                    else:
                        self._step_interp()
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

    def _fetch(self) -> Instruction:
        if self.program is None:
            raise RuntimeError("no program loaded")
        index = (self.pc - self.code_base) // 4
        if self.pc % 4 or not 0 <= index < len(self.program.instructions):
            raise Trap(TrapCause.CHERI_BOUNDS, self.pc, "pc outside program")
        if self.mode is ExecutionMode.CHERIOT:
            try:
                self.pcc = self.pcc.set_address(self.pc)
                self.pcc.check_access(self.pc, 4, (Permission.EX,))
            except CapabilityError as fault:
                raise trap_from_capability_fault(fault, self.pc) from fault
        return self.program.instructions[index]

    def step(self) -> None:
        """Fetch, execute and retire one instruction.

        Synchronous faults and pending interrupts vector to the trap
        handler named by the ``mtcc`` special capability register when
        one is installed; otherwise the :class:`Trap` propagates to the
        caller (convenient for tests and bare-metal benchmarks).
        """
        if self._decoded is not None:
            self._step_fast()
        else:
            self._step_interp()

    def _step_fast(self) -> None:
        """Pre-decoded step: handler and operand metadata come from the
        table built at load time; the PCC check is two comparisons while
        the PC stays inside the cached executable window."""
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
            handler, operands, instr = decoded[index]
            next_pc = pc + 4
            info = _RetireInfo(pc)
            try:
                next_pc = handler(self, operands, next_pc, info)
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
                for handler, operands, ipc, info, pre in block.entries:
                    self.pc = ipc
                    if pre:
                        timing.cycles += pre
                        flushed += pre
                    handler(self, operands, 0, info)
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
            t_handler, t_operands, t_instr, t_info, t_pc = term
            self.pc = t_pc
            t_info.branch_taken = False
            next_pc = t_pc + 4
            try:
                try:
                    next_pc = t_handler(self, t_operands, next_pc, t_info)
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

    def _step_interp(self) -> None:
        """The seed's interpretive step: string-keyed dispatch and a full
        PCC authorization per fetch.  Kept as the reference semantics for
        the differential golden-trace tests (:attr:`Tier.INTERP`)."""
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
            next_pc = self.pc + 4
            info = _RetireInfo(self.pc)
            try:
                next_pc = self._execute(instr, next_pc, info)
            except _INSTRUCTION_FAULTS as fault:
                self.stats.traps += 1
                raise _fault_trap(fault, self.pc) from fault
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

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def _execute(self, instr: Instruction, next_pc: int, info: "_RetireInfo") -> int:
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

    d["jal"] = CPU._jal
    d["j"] = lambda cpu, ops, npc, info: cpu._jal((0, ops[0]), npc, info)
    d["jalr"] = CPU._jalr
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
    d["clc"] = CPU._clc
    d["csc"] = CPU._csc

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

    d["ecall"] = CPU._ecall

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

#: Pre-combined ``Permission.value`` masks for the fast memory-access
#: check, keyed by the ``_mem_address`` kind, and the architectural
#: permission tuples for the fault-raising fallback (order matters: the
#: fault names the first missing permission, like the seed did).
_KIND_PERMS = {
    "r": (Permission.LD,),
    "w": (Permission.SD,),
    "cr": (Permission.LD, Permission.MC),
    "cw": (Permission.SD, Permission.MC),
}
_KIND_BITS = {
    kind: sum(p.value for p in perms) for kind, perms in _KIND_PERMS.items()
}


def _illegal_instruction_handler(mnemonic: str):
    """Handler bound at decode time for mnemonics without semantics.

    The trap is raised at *execute* time (matching hardware decode — a
    program carrying an unknown instruction only faults if it reaches
    it), with the seed's exact message.
    """

    def _illegal(cpu, ops, npc, info):
        raise Trap(
            TrapCause.ILLEGAL_INSTRUCTION, cpu.pc, f"no handler: {mnemonic}"
        )

    return _illegal


def _decode_program(program: Program) -> "List[tuple]":
    """Decode once, execute many: bind handlers and operand metadata.

    Each entry is ``(handler, operands, instr)``, indexed by instruction
    position — everything the hot step loop needs without a string-keyed
    dispatch lookup.
    """
    decoded = []
    for instr in program.instructions:
        handler = _DISPATCH.get(instr.mnemonic)
        if handler is None:
            handler = _illegal_instruction_handler(instr.mnemonic)
        decoded.append((handler, instr.operands, instr))
    return decoded

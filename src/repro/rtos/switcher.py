"""The trusted compartment switcher (paper sections 2.6 and 5.2).

The switcher is the security-critical RTOS primitive — a few hundred
hand-written instructions — that implements cross-compartment procedure
calls:

1. validates and unseals the caller's import token (a sealed export
   reference; forgeries fault),
2. applies the export's interrupt posture (sentry semantics),
3. *chops* the caller's stack: the callee receives a capability to only
   the unused part below the caller's stack pointer, with SL so the
   stack remains the only place local capabilities can be stored,
4. zeroes the handed-over stack before entry and the callee-dirtied
   part after return — bounded by the stack high-water mark when that
   hardware is fitted (section 5.2.1), by the whole unused region when
   not,
5. clears non-argument registers so nothing leaks between mutually
   distrusting compartments.

Cycle costs are charged through the core model: the hand-written
instruction counts for call and return paths plus the mechanistic cost
of every byte zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.capability import Capability, Permission
from repro.capability.errors import CapabilityError, PermissionFault, SealedFault, TagFault
from repro.capability.otypes import RTOS_DATA_OTYPES
from repro.isa.csr import CSRFile
from repro.isa.exceptions import Trap
from repro.memory.bus import SystemBus
from repro.pipeline.model import CoreModel
from .compartment import (
    Compartment,
    Export,
    FaultInfo,
    ImportToken,
    InterruptPosture,
    RecoveryAction,
)
from .thread import Thread

#: Hand-written instruction counts for the switcher paths.  The paper
#: quotes "a little over 300 hand-written instructions" for all RTOS
#: primitives; the call/return pair accounts for the bulk of them.
CROSS_CALL_INSTRS = 95
CROSS_RETURN_INSTRS = 85
#: The fault-unwind path on top of the normal return path: trap entry,
#: cause triage, trusted-stack walk and non-argument register clearing
#: (the error path of the hand-written switcher, section 5.2).  Charged
#: *in addition* to the return-path instructions and the callee-dirtied
#: stack zeroing, which the unwind performs like any return.
FAULT_UNWIND_INSTRS = 55
#: Dispatching into a registered compartment error handler: building
#: the spill-free error context and the sealed re-entry.
ERROR_HANDLER_INSTRS = 24
#: Retries a handler may request before the switcher forces an unwind —
#: a faulting retry loop must not wedge the caller.
MAX_FAULT_RETRIES = 3

#: Fraction of switcher instructions that are memory operations
#: (register spills, trusted-stack maintenance).
SWITCHER_MEM_FRACTION = 0.35

#: The data otype import tokens are sealed with (section 3.2.2).
_EXPORT_OTYPE = RTOS_DATA_OTYPES["compartment-export"]


class CompartmentFault(Exception):
    """A callee compartment faulted; the switcher contained it.

    Compartmentalization limits the blast radius of a compromise
    (section 2.2): a capability violation inside a callee unwinds that
    call — the callee's stack is zeroed, the interrupt posture and
    trusted stack are restored — and surfaces to the *caller* as this
    controlled error, carrying no callee state beyond the cause.
    """

    def __init__(self, compartment: str, export: str, cause: Exception) -> None:
        super().__init__(
            f"compartment {compartment!r} faulted in {export!r}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.compartment = compartment
        self.export = export
        self.cause_type = type(cause).__name__


@dataclass
class SwitcherStats:
    calls: int = 0
    returns: int = 0
    faults_contained: int = 0
    bytes_zeroed: int = 0
    forged_tokens_rejected: int = 0
    error_handlers_invoked: int = 0
    error_handler_faults: int = 0
    faults_retried: int = 0
    compartments_restarted: int = 0


class CallContext:
    """What an export's handler sees while running.

    Provides the compartment-local facilities whose misuse the
    architecture would trap: stack usage (drives the high-water mark),
    capability stores to stack versus globals (SL enforcement), and
    nested cross-compartment calls.

    The context is also the call's entry on the switcher's trusted
    stack: the caller's aligned stack pointer (``sp_at_entry``) and
    interrupt posture (``saved_posture``), both restored on return.
    """

    __slots__ = (
        "switcher", "compartment", "thread", "stack_cap", "args", "sp",
        "sp_at_entry", "saved_posture",
    )

    def __init__(
        self,
        switcher: "CompartmentSwitcher",
        compartment: Compartment,
        thread: Thread,
        stack_cap: Capability,
        args: tuple,
        sp_at_entry: int,
        saved_posture: bool,
    ) -> None:
        self.switcher = switcher
        self.compartment = compartment
        self.thread = thread
        self.stack_cap = stack_cap
        self.args = args
        self.sp = thread.sp
        self.sp_at_entry = sp_at_entry
        self.saved_posture = saved_posture

    # -- stack ----------------------------------------------------------

    def use_stack(self, nbytes: int) -> None:
        """Push a frame of ``nbytes``: real stores, so the HWM moves."""
        nbytes = (nbytes + 7) & ~7
        if nbytes <= 0:
            return
        new_sp = self.sp - nbytes
        thread = self.thread
        if new_sp < thread.stack_region.base:
            raise PermissionFault("stack overflow")
        switcher = self.switcher
        switcher.bus.fill(new_sp, nbytes, 0xAA)
        switcher.csr.note_store(new_sp)
        core = switcher.core_model
        if core is not None:
            core.charge(core.zero_bytes_cycles(nbytes))
        self.sp = thread.sp = new_sp

    def _stack_slot(self, offset: int) -> int:
        """Address of 8-byte stack slot ``offset`` (slot 0 just below SP)."""
        return (self.sp - 8 - offset) & ~7

    def store_stack_cap(self, offset: int, cap: Capability) -> None:
        """Store a capability into the live stack frame.

        Allowed even for *local* capabilities because the stack
        capability carries SL — this is the one sanctioned home for
        ephemerally delegated references.
        """
        address = self._stack_slot(offset)
        self.stack_cap.check_access(address, 8, (Permission.SD, Permission.MC))
        # SL check: stack_cap has SL, so locals are fine.
        self.switcher.bus.write_capability(address, cap)
        self.switcher.csr.note_store(address)

    # -- globals (SL enforcement lives in Compartment) ------------------

    def store_global_cap(self, slot: str, cap: Capability) -> None:
        self.compartment.store_global_cap(slot, cap)

    def load_global_cap(self, slot: str) -> Capability:
        return self.compartment.load_global_cap(slot)

    # -- nested cross-compartment calls ---------------------------------

    def call(self, compartment: str, export: str, *args):
        """Call through one of this compartment's imports."""
        token = self.compartment.get_import(compartment, export)
        self.thread.sp = self.sp
        try:
            return self.switcher.call(self.thread, token, *args)
        finally:
            self.sp = self.thread.sp


class CompartmentSwitcher:
    """The trusted cross-compartment call/return path."""

    def __init__(
        self,
        bus: SystemBus,
        csr: CSRFile,
        unseal_authority: Capability,
        core_model: Optional[CoreModel] = None,
    ) -> None:
        self.bus = bus
        self.csr = csr
        self.core_model = core_model
        self.unseal_authority = unseal_authority
        #: The authority every import token is unsealed with: tokens are
        #: sealed with the one compartment-export otype, so the address
        #: move is call-independent.  ``_resolve_token`` runs the full
        #: ``unseal`` (tag, seal, otype, US and bounds checks) on every
        #: token it resolves.
        self._export_unsealer = unseal_authority.set_address(_EXPORT_OTYPE)
        #: The return path's instruction mix, the same for every export.
        self._return_cycles = (
            core_model.mixed_instr_cycles(
                CROSS_RETURN_INSTRS, SWITCHER_MEM_FRACTION
            )
            if core_model is not None else 0
        )
        self.stats = SwitcherStats()
        #: Optional :class:`repro.obs.Telemetry`; every instrumentation
        #: site below is guarded by one ``is not None`` check so the
        #: un-instrumented call path is exactly the seed's.
        self.obs = None
        self._compartments: Dict[str, Compartment] = {}
        self._trusted_stack: List[CallContext] = []
        #: Export table: entry address -> (compartment, export).  The
        #: loader allocates one slot per linked export; a token's sealed
        #: capability must point at the slot matching its names, so a
        #: replayed sealed capability cannot be relabelled to call a
        #: different entry point (section 2.6 — the sealed reference IS
        #: the authority; the names are only a convenience).
        self._export_table: Dict[int, "tuple[str, str]"] = {}
        self._export_slots: Dict[str, int] = {}
        #: Chopped stack capabilities, see :meth:`_chop`.
        self._chops: Dict[tuple, "tuple[Capability, Capability]"] = {}
        #: Resolved import tokens, see :meth:`_bind`.
        self._bindings: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Registry (populated by the loader)
    # ------------------------------------------------------------------

    def register_compartment(self, compartment: Compartment) -> None:
        if compartment.name in self._compartments:
            raise ValueError(f"duplicate compartment {compartment.name!r}")
        self._compartments[compartment.name] = compartment
        self._bindings.clear()

    def compartment(self, name: str) -> Compartment:
        return self._compartments[name]

    def register_export_entry(
        self, compartment: str, export: str, globals_cap: Capability
    ) -> int:
        """Allocate (or return) the export-table slot for one entry.

        Slots are 8-byte-spaced addresses inside the exporting
        compartment's globals, so each linked export has a globally
        unique entry address that its sealed import tokens carry.
        """
        for address, names in self._export_table.items():
            if names == (compartment, export):
                return address
        slot = self._export_slots.get(compartment, 0)
        address = globals_cap.base + 8 * slot
        self._export_slots[compartment] = slot + 1
        # A new slot may overwrite another export's entry, which a
        # token bound to that entry must then fail to resolve.
        self._export_table[address] = (compartment, export)
        self._bindings.clear()
        return address

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def _charge_instrs(self, count: int) -> None:
        core = self.core_model
        if core is not None:
            core.charge(core.mixed_instr_cycles(count, SWITCHER_MEM_FRACTION))

    def _zero_below_sp(self, thread: Thread) -> None:
        """Clear the stack the next compartment must not see.

        With the high-water-mark hardware this is ``[mshwm, sp)`` — only
        what has actually been dirtied below the current pointer.
        Without it, the switcher cannot know and must clear the entire
        unused portion ``[stack_base, sp)`` (section 5.2.1).  The range
        is zeroed functionally and in cycles; an empty one costs nothing,
        but the mark is pulled back up to ``sp`` either way.
        """
        sp = thread.sp
        csr = self.csr
        low = thread.stack_region.base
        if csr.hwm_enabled:
            mark = csr.high_water_mark
            if mark > low:
                low = mark
        if low < sp:
            size = sp - low
            self.bus.fill(low, size, 0)
            self.stats.bytes_zeroed += size
            core = self.core_model
            if core is not None:
                core.charge(core.zero_bytes_cycles(size))
        csr.reset_high_water_mark(sp)

    # ------------------------------------------------------------------
    # The call path
    # ------------------------------------------------------------------

    def _resolve_token(self, token: ImportToken) -> "tuple[Compartment, Export]":
        sealed = token.sealed_cap
        if not sealed.tag:
            raise TagFault("import token is untagged (forged?)")
        if sealed.otype != _EXPORT_OTYPE:  # unsealed is otype 0
            raise SealedFault("import token not sealed as a compartment export")
        # Architectural unseal: faults if the authority does not cover
        # the export otype.
        sealed.unseal(self._export_unsealer)
        # The sealed capability's address names the export-table entry;
        # the token's free-text names must agree with it.  A valid sealed
        # capability replayed under different names is a forgery.
        entry = self._export_table.get(sealed.address)
        if entry != (token.compartment_name, token.export_name):
            self.stats.forged_tokens_rejected += 1
            raise SealedFault(
                f"import token names {token.compartment_name}."
                f"{token.export_name} but its sealed capability points at "
                f"{'.'.join(entry) if entry else 'no export-table entry'}"
            )
        target = self._compartments.get(token.compartment_name)
        if target is None:
            raise KeyError(f"unknown compartment {token.compartment_name!r}")
        return target, target.get_export(token.export_name)

    def _bind(self, token: ImportToken) -> tuple:
        """Resolve ``token`` and keep what every call through it reuses.

        The binding is ``(token, target, export, entry cycles, posture
        setting)``.  Everything ``_resolve_token`` reads is fixed once it
        succeeds — the token, its sealed capability and the export are
        frozen, a compartment's exports only grow (``restart`` keeps
        them), the unsealer and the core model are never rebound, and
        ``register_compartment``/``register_export_entry``, the only
        writers of the two tables, drop every binding — so a later call
        through the token would resolve it to the same pair and charge
        the same cycles.  As in :meth:`_chop`, the key is the token's
        identity and the entry holds the token itself, so no other
        object can take that identity while the entry lives.  A token
        that fails to resolve raises before anything is stored, so it
        faults, and is counted, on every call.
        """
        target, export = self._resolve_token(token)
        core = self.core_model
        entry_cycles = (
            core.mixed_instr_cycles(
                CROSS_CALL_INSTRS + export.veneer_instructions,
                SWITCHER_MEM_FRACTION,
            )
            if core is not None else 0
        )
        binding = (
            token, target, export, entry_cycles,
            InterruptPosture.ON_ENTRY[export.posture],
        )
        self._bindings[id(token)] = binding
        return binding

    def call(self, thread: Thread, token: ImportToken, *args):
        """Cross-compartment call: the full trusted sequence.

        Architectural faults inside the callee are contained: the frame
        is unwound (stack zeroed, posture and trusted stack restored, the
        unwind's mechanistic cycle cost charged) and the faulting
        compartment's error handler — if registered — chooses how the
        fault surfaces: unwind to the caller, retry the entry, or
        restart the compartment first (section 5.2).
        """
        binding = self._bindings.get(id(token))
        if binding is None:
            binding = self._bind(token)
        target = binding[1]
        retries = 0
        while True:
            try:
                return self._invoke(thread, binding, args)
            except (CapabilityError, Trap) as fault:
                # The callee violated the architecture: contain it.  The
                # frame was already unwound (stack zeroed, posture
                # restored) by _invoke's finally block; charge the error
                # path's extra instructions on top.
                self.stats.faults_contained += 1
                obs = self.obs
                if obs is not None:
                    obs.tracer.instant(
                        f"fault-unwind {token.compartment_name}",
                        "fault",
                        cause=type(fault).__name__,
                        export=token.export_name,
                    )
                    obs.attributor.push("switcher")
                try:
                    self._charge_instrs(FAULT_UNWIND_INSTRS)
                    action = self._consult_error_handler(
                        target, token, fault, retries
                    )
                finally:
                    if obs is not None:
                        obs.attributor.pop()
                if action is RecoveryAction.RETRY and retries < MAX_FAULT_RETRIES:
                    retries += 1
                    self.stats.faults_retried += 1
                    continue
                if action is RecoveryAction.RESTART:
                    target.restart()
                    self.stats.compartments_restarted += 1
                raise CompartmentFault(
                    token.compartment_name, token.export_name, fault
                ) from fault

    def _chop(self, stack_cap: Capability, base: int, sp: int) -> Capability:
        """The callee's stack: ``stack_cap`` narrowed to ``[base, sp)``.

        The chop is a pure function of its three arguments, and the
        batched receive pumps repeat a handful of them, so it is
        memoised.  The key holds the capability's identity and the entry
        holds the capability itself: while an entry lives, no other
        object can take that identity, so a replaced ``thread.stack_cap``
        always misses.  A chop that faults raises before anything is
        stored, so it faults again on every call.
        """
        key = (id(stack_cap), base, sp)
        hit = self._chops.get(key)
        if hit is not None and hit[0] is stack_cap:
            return hit[1]
        chopped = stack_cap.set_address(base).set_bounds(sp - base)
        self._chops[key] = (stack_cap, chopped)
        return chopped

    def _invoke(self, thread: Thread, binding: tuple, args):
        """One entry through the call/return path (no fault policy)."""
        _, target, export, entry_cycles, posture = binding
        self.stats.calls += 1
        obs = self.obs
        xcall_span = None
        if obs is not None:
            xcall_span = obs.tracer.begin(
                f"xcall {target.name}.{export.name}",
                "switcher",
                depth=len(self._trusted_stack) + 1,
            )
            obs.attributor.push("switcher")
        core = self.core_model
        if core is not None:
            core.charge(entry_cycles)

        csr = self.csr
        saved_posture = csr.interrupts_enabled
        if posture is not None:
            csr.interrupts_enabled = posture

        # Clear anything dirty below the caller's SP, then chop the stack.
        self._zero_below_sp(thread)
        sp = thread.sp & ~0xF
        callee_stack = self._chop(thread.stack_cap, thread.stack_region.base, sp)
        context = CallContext(
            self, target, thread, callee_stack, args, sp, saved_posture
        )
        self._trusted_stack.append(context)
        callee_span = None
        try:
            if obs is not None:
                callee_span = obs.tracer.begin(
                    f"{target.name}.{export.name}", "compartment"
                )
                obs.attributor.push(target.name)
            return export.handler(context, *args)
        finally:
            if obs is not None:
                # Close the callee first so the return-path zeroing and
                # instruction charges below land in the switcher bucket.
                obs.attributor.pop()
                obs.tracer.end(callee_span)
            self._trusted_stack.pop()
            # Return path: zero exactly what the callee dirtied (HWM) or
            # the whole handed-over region (no HWM), restore SP/posture.
            thread.sp = context.sp_at_entry
            self._zero_below_sp(thread)
            csr.interrupts_enabled = context.saved_posture
            self.stats.returns += 1
            if core is not None:
                core.charge(self._return_cycles)
            if obs is not None:
                obs.attributor.pop()
                obs.tracer.end(xcall_span)

    def _consult_error_handler(
        self,
        target: Compartment,
        token: ImportToken,
        fault: Exception,
        retries: int,
    ) -> RecoveryAction:
        """Ask the faulting compartment how its fault should surface.

        Runs after the unwind, so the handler can never observe the
        crashed frame.  A handler that itself faults — or returns
        anything but a :class:`RecoveryAction` — forces an unwind: the
        error path must terminate.
        """
        handler = target.error_handler
        if handler is None:
            return RecoveryAction.UNWIND
        self.stats.error_handlers_invoked += 1
        self._charge_instrs(ERROR_HANDLER_INSTRS)
        info = FaultInfo(
            compartment=token.compartment_name,
            export=token.export_name,
            cause_type=type(fault).__name__,
            cause=str(fault),
            depth=len(self._trusted_stack) + 1,
            retries=retries,
        )
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                f"error-handler {token.compartment_name}",
                "fault",
                cause=info.cause_type,
            )
        try:
            action = handler(info)
        except (CapabilityError, Trap):
            self.stats.error_handler_faults += 1
            return RecoveryAction.UNWIND
        finally:
            if obs is not None:
                obs.tracer.end(span)
        if not isinstance(action, RecoveryAction):
            return RecoveryAction.UNWIND
        return action

    @property
    def call_depth(self) -> int:
        return len(self._trusted_stack)

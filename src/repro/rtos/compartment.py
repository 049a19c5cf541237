"""Compartments: code + globals capability pairs with exports/imports.

A CHERIoT compartment (paper section 2.6) is a contiguous region of code
and intra-compartment global data, defined by a pair of capabilities:
the program-counter capability covering its code and a globals
capability covering its data.  Compartments declare **exports**
(procedures deliberately offered to the world) and hold **imports**
(sealed references to other compartments' exports, resolved at static
link time by the loader).

At this model's level, an export's behaviour is a Python callable
``fn(ctx, *args)`` receiving a :class:`CallContext`; the trusted
switcher (:mod:`repro.rtos.switcher`) is the only way to invoke one
from outside the compartment.

Compartments may also register an **error handler** (section 5.2): when
an export faults, the switcher first unwinds the call — zeroing the
callee-dirtied stack and restoring the trusted stack — and then gives
the faulting compartment's handler a chance to decide how the fault
surfaces: unwind to the caller, retry the entry point, or restart the
compartment (its globals reset to the loaded image).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.capability import Capability, Permission
from repro.capability.errors import PermissionFault
from repro.memory.layout import Region


class InterruptPosture:
    """How an export runs with respect to interrupts (section 3.1.2).

    Encoded architecturally as the sentry type the loader seals the
    entry point with; auditing *which code runs with interrupts
    disabled* reduces to auditing which exports are INHERIT/DISABLED.
    """

    INHERIT = "inherit"
    DISABLED = "disabled"
    ENABLED = "enabled"

    #: The interrupt-enable state each posture sets on entry (``None``
    #: keeps the caller's); its keys are the only postures an export
    #: may have.
    ON_ENTRY = {INHERIT: None, DISABLED: False, ENABLED: True}


@dataclass(frozen=True)
class Export:
    """One compartment entry point offered for cross-compartment calls."""

    name: str
    handler: Callable
    posture: str = InterruptPosture.ENABLED
    #: Straight-line instructions the entry veneer executes (cost model).
    veneer_instructions: int = 6


class RecoveryAction(enum.Enum):
    """What a compartment error handler asks the switcher to do.

    ``UNWIND`` surfaces the fault to the caller as a
    :class:`~repro.rtos.switcher.CompartmentFault` (the default when no
    handler is registered).  ``RETRY`` re-enters the faulted export with
    the same arguments (bounded — repeated faults force an unwind).
    ``RESTART`` resets the compartment's globals to their loaded image
    before unwinding, so the *next* call enters a known-good state.
    """

    UNWIND = "unwind"
    RETRY = "retry"
    RESTART = "restart"


@dataclass(frozen=True)
class FaultInfo:
    """What an error handler learns about the fault (and nothing more).

    Mirrors the register-spill-free error context of the RTOS: the
    handler sees which export faulted and the architectural cause, never
    the unwound frame's contents (those were zeroed before it ran).
    """

    compartment: str
    export: str
    cause_type: str
    cause: str
    #: Trusted-stack depth at which the fault was contained.
    depth: int
    #: How many times this call has already been retried.
    retries: int


@dataclass(frozen=True)
class ImportToken:
    """A sealed reference to another compartment's export.

    Unforgeable: only the loader mints these (sealing with the RTOS
    export otype) and only the switcher unseals them.  Holding a token
    licenses calling exactly that export — nothing else of the exporting
    compartment (section 2.2).
    """

    compartment_name: str
    export_name: str
    sealed_cap: Capability


class Compartment:
    """A unit of mutual distrust: private code, globals, and exports."""

    def __init__(
        self,
        name: str,
        code_cap: Capability,
        globals_cap: Capability,
        globals_region: Optional[Region] = None,
    ) -> None:
        if Permission.EX not in code_cap.perms:
            raise PermissionFault(f"compartment {name}: code capability lacks EX")
        if Permission.SL in globals_cap.perms:
            raise PermissionFault(
                f"compartment {name}: globals must not carry SL "
                "(locals may only live on the stack — section 5.2)"
            )
        self.name = name
        self.code_cap = code_cap
        self.globals_cap = globals_cap
        self.globals_region = globals_region
        self._exports: Dict[str, Export] = {}
        self._imports: Dict[str, ImportToken] = {}
        #: Named capability slots in global data.  Stores into these are
        #: subject to the SL check: the globals capability has no SL, so
        #: local (non-GL) capabilities can never be captured here.
        self._global_caps: Dict[str, Capability] = {}
        #: Plain (non-capability) global state for compartment logic.
        self.state: Dict[str, object] = {}
        #: Optional error handler ``fn(info: FaultInfo) -> RecoveryAction``
        #: invoked by the switcher after a contained fault's unwind.
        self._error_handler: Optional[Callable[[FaultInfo], RecoveryAction]] = None
        #: Post-link image of the globals, captured by the loader at
        #: finalize time; ``restart`` restores it.
        self._snapshot: Optional[tuple] = None
        #: Times this compartment was restarted after a fault.
        self.restarts = 0

    # ------------------------------------------------------------------
    # Exports and imports
    # ------------------------------------------------------------------

    def export(
        self,
        name: str,
        handler: Callable,
        posture: str = InterruptPosture.ENABLED,
    ) -> Export:
        """Declare an entry point callable from other compartments."""
        if posture not in InterruptPosture.ON_ENTRY:
            raise ValueError(
                f"export {name!r} in {self.name}: posture {posture!r} is not "
                f"one of {', '.join(map(repr, InterruptPosture.ON_ENTRY))}"
            )
        if name in self._exports:
            raise ValueError(f"duplicate export {name!r} in {self.name}")
        exp = Export(name, handler, posture)
        self._exports[name] = exp
        return exp

    def get_export(self, name: str) -> Export:
        try:
            return self._exports[name]
        except KeyError:
            raise KeyError(f"{self.name} has no export {name!r}") from None

    @property
    def exports(self) -> "Dict[str, Export]":
        return dict(self._exports)

    def add_import(self, token: ImportToken) -> None:
        """Record a resolved import (done by the loader at link time)."""
        key = f"{token.compartment_name}.{token.export_name}"
        self._imports[key] = token

    def get_import(self, compartment: str, export: str) -> ImportToken:
        try:
            return self._imports[f"{compartment}.{export}"]
        except KeyError:
            raise KeyError(
                f"{self.name} did not import {compartment}.{export}"
            ) from None

    # ------------------------------------------------------------------
    # Global capability storage (SL enforcement)
    # ------------------------------------------------------------------

    def store_global_cap(self, slot: str, cap: Capability) -> None:
        """Store a capability into compartment globals.

        Enforces the Store-Local rule: the globals capability carries no
        SL, so storing a tagged *local* capability traps — this is what
        makes scoped delegation sound (section 5.2).
        """
        if not isinstance(cap, Capability):
            raise TypeError("global capability slots hold capabilities")
        if cap.tag and cap.is_local:
            raise PermissionFault(
                f"{self.name}: storing local capability to globals "
                "requires SL, which globals never have"
            )
        self._global_caps[slot] = cap

    def load_global_cap(self, slot: str) -> Capability:
        try:
            return self._global_caps[slot]
        except KeyError:
            raise KeyError(f"{self.name} has no global capability {slot!r}") from None

    # ------------------------------------------------------------------
    # Error handling and restart (section 5.2 recovery)
    # ------------------------------------------------------------------

    def set_error_handler(
        self, handler: Optional[Callable[[FaultInfo], RecoveryAction]]
    ) -> None:
        """Register (or clear, with ``None``) the fault handler.

        The handler runs *after* the switcher has unwound and zeroed the
        faulted frame, so it can never observe the crashed call's stack;
        it only decides how the fault surfaces.
        """
        self._error_handler = handler

    @property
    def error_handler(self) -> Optional[Callable[[FaultInfo], RecoveryAction]]:
        return self._error_handler

    def snapshot_globals(self) -> None:
        """Capture the post-link globals image (done by the loader).

        The snapshot is what ``RecoveryAction.RESTART`` restores: the
        capability slots and plain state exactly as the loader left them.
        """
        self._snapshot = (dict(self._global_caps), dict(self.state))

    def restart(self) -> None:
        """Reset globals to the loaded image (the RESTART recovery path).

        Capability slots and plain state revert to the loader's snapshot
        (or empty, for compartments built without one); exports, imports
        and the registered error handler survive — they are part of the
        immutable image, not of mutable state.
        """
        if self._snapshot is not None:
            caps, state = self._snapshot
            self._global_caps = dict(caps)
            self.state = dict(state)
        else:
            self._global_caps = {}
            self.state = {}
        self.restarts += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Compartment {self.name} exports={sorted(self._exports)}>"

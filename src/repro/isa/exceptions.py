"""Processor trap taxonomy and the mapping from capability faults.

The executor converts :mod:`repro.capability.errors` exceptions raised
during instruction execution into :class:`Trap` values.  When no trap
vector is installed the trap propagates as a Python exception so tests
can assert on the precise fault; the RTOS installs a handler.
"""

from __future__ import annotations

import enum

from repro.capability.errors import (
    BoundsFault,
    CapabilityError,
    MonotonicityFault,
    OTypeFault,
    PermissionFault,
    SealedFault,
    TagFault,
)


class TrapCause(enum.Enum):
    """Architectural trap causes (a condensed CHERIoT cause set)."""

    CHERI_TAG = "cheri-tag-violation"
    CHERI_SEAL = "cheri-seal-violation"
    CHERI_PERMISSION = "cheri-permission-violation"
    CHERI_BOUNDS = "cheri-bounds-violation"
    CHERI_MONOTONICITY = "cheri-monotonicity-violation"
    CHERI_OTYPE = "cheri-otype-violation"
    MISALIGNED = "misaligned-access"
    ILLEGAL_INSTRUCTION = "illegal-instruction"
    ECALL = "environment-call"
    BUS_FAULT = "bus-access-fault"
    TIMER_INTERRUPT = "machine-timer-interrupt"
    EXTERNAL_INTERRUPT = "machine-external-interrupt"

    @property
    def code(self) -> int:
        """The numeric value written to ``mcause`` when vectoring."""
        return _MCAUSE_CODES[self]


#: mcause encodings: interrupts carry the RISC-V interrupt bit (1<<31).
_MCAUSE_CODES = {
    TrapCause.MISALIGNED: 4,
    TrapCause.ILLEGAL_INSTRUCTION: 2,
    TrapCause.ECALL: 11,
    TrapCause.BUS_FAULT: 5,
    TrapCause.CHERI_TAG: 0x1C0 | 2,
    TrapCause.CHERI_SEAL: 0x1C0 | 3,
    TrapCause.CHERI_PERMISSION: 0x1C0 | 0x11,
    TrapCause.CHERI_BOUNDS: 0x1C0 | 1,
    TrapCause.CHERI_MONOTONICITY: 0x1C0 | 0x10,
    TrapCause.CHERI_OTYPE: 0x1C0 | 4,
    TrapCause.TIMER_INTERRUPT: (1 << 31) | 7,
    TrapCause.EXTERNAL_INTERRUPT: (1 << 31) | 11,
}


_CAUSE_BY_FAULT = {
    TagFault: TrapCause.CHERI_TAG,
    SealedFault: TrapCause.CHERI_SEAL,
    PermissionFault: TrapCause.CHERI_PERMISSION,
    BoundsFault: TrapCause.CHERI_BOUNDS,
    MonotonicityFault: TrapCause.CHERI_MONOTONICITY,
    OTypeFault: TrapCause.CHERI_OTYPE,
}


class Trap(Exception):
    """A processor trap, carrying the cause and faulting PC."""

    def __init__(self, cause: TrapCause, pc: int, detail: str = "") -> None:
        super().__init__(f"{cause.value} at pc={pc:#x}" + (f": {detail}" if detail else ""))
        self.cause = cause
        self.pc = pc
        self.detail = detail


def trap_from_capability_fault(fault: CapabilityError, pc: int) -> Trap:
    """Translate a capability-layer fault into the architectural trap."""
    cause = _CAUSE_BY_FAULT.get(type(fault), TrapCause.CHERI_PERMISSION)
    return Trap(cause, pc, str(fault))

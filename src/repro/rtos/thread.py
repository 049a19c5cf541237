"""Threads and their stacks.

Threads and compartments are orthogonal (paper section 2.6): at any time
the core runs one thread inside one compartment.  Each thread owns a
stack carved from the irrevocable stack region; the switcher chops it on
cross-compartment calls and the stack high-water-mark CSR pair tracks
its deepest store (section 5.2.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.capability import Capability, Permission
from repro.isa.csr import HWMState
from repro.memory.layout import Region


class ThreadState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


@dataclass
class Thread:
    """One schedulable thread."""

    tid: int
    name: str
    stack_region: Region
    #: Stack capability: SL-bearing and *local* — the only storage that
    #: can hold local capabilities (section 5.2).
    stack_cap: Capability
    priority: int = 0
    entry_compartment: str = ""
    state: ThreadState = ThreadState.READY
    #: Current stack pointer (stacks grow downward from region top).
    sp: int = 0
    #: Saved stack-base / high-water-mark CSRs (restored on switch-in).
    hwm_state: Optional[HWMState] = None

    def __post_init__(self) -> None:
        if self.sp == 0:
            self.sp = self.stack_region.top
        if Permission.SL not in self.stack_cap.perms:
            raise ValueError("stack capability must carry SL")
        if self.stack_cap.is_global:
            raise ValueError("stack capability must be local (no GL)")

    @property
    def stack_used(self) -> int:
        return self.stack_region.top - self.sp

    @property
    def stack_free(self) -> int:
        return self.sp - self.stack_region.base

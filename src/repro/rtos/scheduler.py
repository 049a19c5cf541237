"""Preemptive priority scheduler with mechanistic context-switch costs.

Multitasking facilities let the core change threads (paper section 2.6);
compartments change only via the switcher.  What matters for the
evaluation is the *cost* of a context switch: saving and restoring the
15 capability registers plus the PCC — and, when the stack high-water
mark is fitted, the two extra CSRs (``mshwmb``/``mshwm``) whose
save/restore the paper observes as visible overhead in the
revoker-bound 128 KiB benchmark (section 7.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.isa.csr import CSRFile
from repro.pipeline.model import CoreModel
from .thread import Thread, ThreadState

#: Instructions to save + restore 15 capability registers and the PCC
#: through the trusted stack (two memory operations each way per
#: register, plus dispatch overhead).
CONTEXT_SWITCH_BASE_INSTRS = 68
#: Extra instructions to save + restore the two stack-HWM CSRs.
HWM_CSR_EXTRA_INSTRS = 4
#: Fraction of context-switch instructions that are memory operations.
SWITCH_MEM_FRACTION = 0.6


@dataclass
class SchedulerStats:
    context_switches: int = 0
    timer_ticks: int = 0


class Scheduler:
    """Priority round-robin over the registered threads."""

    def __init__(
        self,
        csr: CSRFile,
        core_model: Optional[CoreModel] = None,
        timeslice_cycles: int = 1000,
    ) -> None:
        self.csr = csr
        self.core_model = core_model
        self.timeslice_cycles = timeslice_cycles
        self.stats = SchedulerStats()
        #: Optional :class:`repro.obs.Telemetry`.
        self.obs = None
        self._threads: Dict[int, Thread] = {}
        self._current: Optional[Thread] = None

    # ------------------------------------------------------------------
    # Thread registry
    # ------------------------------------------------------------------

    def add_thread(self, thread: Thread) -> None:
        if thread.tid in self._threads:
            raise ValueError(f"duplicate thread id {thread.tid}")
        self._threads[thread.tid] = thread

    @property
    def threads(self) -> List[Thread]:
        return list(self._threads.values())

    @property
    def current(self) -> Optional[Thread]:
        return self._current

    # ------------------------------------------------------------------
    # Context switching
    # ------------------------------------------------------------------

    def context_switch_cost(self) -> int:
        """Cycles for one context switch on the attached core."""
        instrs = CONTEXT_SWITCH_BASE_INSTRS
        if self.csr.hwm_enabled:
            instrs += HWM_CSR_EXTRA_INSTRS
        if self.core_model is None:
            return instrs
        return self.core_model.mixed_instr_cycles(instrs, SWITCH_MEM_FRACTION)

    def switch_to(self, thread: Thread) -> None:
        """Switch the hart to ``thread`` (saving the HWM CSR pair)."""
        if thread.tid not in self._threads:
            raise ValueError(f"unknown thread {thread.tid}")
        previous = self._current
        if previous is thread:
            return
        obs = self.obs
        if obs is not None:
            obs.attributor.push("scheduler")
            obs.tracer.instant(
                f"context-switch -> {thread.name}",
                "sched",
                tid=thread.tid,
                from_thread=previous.name if previous is not None else None,
            )
        if previous is not None:
            previous.hwm_state = self.csr.save_hwm()
            if previous.state is ThreadState.RUNNING:
                previous.state = ThreadState.READY
        if thread.hwm_state is not None:
            self.csr.restore_hwm(thread.hwm_state)
        else:
            self.csr.set_stack(thread.stack_region.base, thread.stack_region.top)
        thread.state = ThreadState.RUNNING
        self._current = thread
        self.stats.context_switches += 1
        if self.core_model is not None:
            self.core_model.charge(self.context_switch_cost())
        if obs is not None:
            obs.attributor.pop()

    def pick_next(self) -> Optional[Thread]:
        """Highest-priority READY thread, round-robin within a level."""
        ready = [t for t in self._threads.values() if t.state is ThreadState.READY]
        if not ready:
            return None
        top = max(t.priority for t in ready)
        candidates = [t for t in ready if t.priority == top]
        # Round-robin: pick the one least recently run (by insertion
        # rotation — stable order is enough for the model).
        if self._current in candidates and len(candidates) > 1:
            candidates.remove(self._current)
        return candidates[0]

    def preempt(self) -> Optional[Thread]:
        """Timer tick: reschedule, charging one switch if it happens."""
        self.stats.timer_ticks += 1
        nxt = self.pick_next()
        if nxt is not None and nxt is not self._current:
            self.switch_to(nxt)
        return self._current

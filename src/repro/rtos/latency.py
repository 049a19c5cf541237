"""Interrupt-latency monitoring (the paper's real-time claim, §2.1).

A real-time system must bound the latency of interrupt delivery; on
CHERIoT the only thing that can defer an interrupt is code running with
interrupts disabled, and *which code may do that* is statically
auditable (sentries, §3.1.2).  What remains is measuring how long those
windows actually are.

:class:`InterruptLatencyMonitor` hooks a CSR file's posture transitions
against a core model's cycle counter and records every
interrupts-disabled window.  The paper's design rules then become
checkable properties:

* the longest window is bounded by the largest critical section in the
  image (the revoker's sweep batch, the switcher's entry sequence) and
  in particular does **not** grow with allocation size, heap size or
  sweep count;
* nothing in the hardware has nondeterministic latency, so the bound
  is a constant of the image, not of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.isa.csr import CSRFile
from repro.pipeline.model import CoreModel


@dataclass
class DisabledWindow:
    """One interrupts-off interval, in cycles."""

    start_cycle: int
    end_cycle: int

    @property
    def duration(self) -> int:
        return self.end_cycle - self.start_cycle


class InterruptLatencyMonitor:
    """Records every interrupts-disabled window on a CSR file."""

    def __init__(self, csr: CSRFile, core_model: CoreModel) -> None:
        self.csr = csr
        self.core_model = core_model
        self.windows: List[DisabledWindow] = []
        self._disabled_since: Optional[int] = None
        self._install()

    def _install(self) -> None:
        monitor = self
        csr = self.csr
        original_setter = type(csr).interrupts_enabled.fset

        def wrapped(self_csr, value: bool) -> None:
            was_enabled = self_csr.interrupts_enabled
            original_setter(self_csr, value)
            if was_enabled and not value:
                monitor._disabled_since = monitor.core_model.cycles
            elif not was_enabled and value and monitor._disabled_since is not None:
                monitor.windows.append(
                    DisabledWindow(
                        monitor._disabled_since, monitor.core_model.cycles
                    )
                )
                monitor._disabled_since = None

        # Per-instance override via a tiny subclass-free shim.
        csr_cls = type(csr)
        shim = type(
            f"_Monitored{csr_cls.__name__}",
            (csr_cls,),
            {
                "interrupts_enabled": property(
                    csr_cls.interrupts_enabled.fget, wrapped
                )
            },
        )
        csr.__class__ = shim

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def worst_case(self) -> int:
        """Longest observed interrupts-off window (cycles)."""
        return max((w.duration for w in self.windows), default=0)

    @property
    def total_disabled(self) -> int:
        return sum(w.duration for w in self.windows)

    def reset(self) -> None:
        self.windows = []
        self._disabled_since = None

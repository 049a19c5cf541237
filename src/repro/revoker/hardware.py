"""The background pipelined hardware revoker (paper section 3.3.3).

An MMIO engine with four registers::

    0x0  start   (RW)  sweep region lower bound
    0x4  end     (RW)  sweep region upper bound
    0x8  epoch   (RO)  the revocation epoch counter
    0xC  kick    (WO)  any write starts a pass over [start, end)
                       (no effect if a pass is already underway)

The engine advances through memory whenever the main pipeline leaves the
load-store unit idle, loading each capability word, consulting the
revocation bit for the word's *base*, and writing back (a single
tag-clearing write) only when the word must be invalidated.  Because the
load filter's verdict arrives one cycle after the load, the engine is
pipelined two deep: while word N's verdict is pending, word N+1's load
issues — two capability words are in flight at maximum throughput.

**Race with the main pipeline** (the paper's scenario): the application
may store to an address the revoker holds in flight; the stale in-flight
copy must not be written back over the new value.  Store addresses from
the main pipeline are therefore snooped against the two in-flight words;
a hit forces the revoker to reload that word.  The bus's store-snoop
hook delivers exactly this visibility.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

from repro.capability import Capability
from repro.memory.bus import SystemBus
from repro.memory.revocation_map import RevocationMap
from repro.pipeline.model import CoreModel
from .epoch import EpochCounter

#: MMIO register offsets.
REG_START = 0x0
REG_END = 0x4
REG_EPOCH = 0x8
REG_KICK = 0xC


@dataclass
class _InFlight:
    """One capability word in the revoker's two-stage pipeline."""

    address: int
    value: Capability
    dirty: bool = False  # a main-pipeline store hit this address


@dataclass
class RevokerStats:
    passes: int = 0
    words_loaded: int = 0
    reloads: int = 0
    invalidations: int = 0


class BackgroundRevoker:
    """The MMIO background revocation engine."""

    def __init__(
        self,
        bus: SystemBus,
        revocation_map: RevocationMap,
        epoch: Optional[EpochCounter] = None,
        core_model: Optional[CoreModel] = None,
    ) -> None:
        # The bus holds the revoker (its MMIO device once attached, and
        # its store snooper while a pass runs), so the revoker refers
        # back to the bus weakly: a strong back-reference would make
        # every bus a reference cycle that only the cyclic collector
        # frees.
        self.bus = weakref.proxy(bus)
        self.revocation_map = revocation_map
        self.epoch = epoch if epoch is not None else EpochCounter()
        self.core_model = core_model
        self.stats = RevokerStats()
        #: Optional :class:`repro.obs.Telemetry`.
        self.obs = None
        self._start = 0
        self._end = 0
        self._cursor = 0
        self._running = False
        self._pipeline: List[_InFlight] = []

    # ------------------------------------------------------------------
    # MMIO interface
    # ------------------------------------------------------------------

    def mmio_read(self, offset: int) -> int:
        if offset == REG_START:
            return self._start
        if offset == REG_END:
            return self._end
        if offset == REG_EPOCH:
            return self.epoch.value
        return 0

    def mmio_write(self, offset: int, value: int) -> None:
        if offset == REG_START:
            self._start = value & ~0x7
        elif offset == REG_END:
            self._end = value & ~0x7
        elif offset == REG_KICK:
            self.kick()
        # epoch is read-only; other offsets ignore writes.

    # ------------------------------------------------------------------
    # Engine control
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def kick(self) -> None:
        """Start a pass over ``[start, end)``; no-op if one is underway.

        The engine snoops the bus's stores from here until the pass
        ends (:meth:`_finish`): only an in-flight word can race a store.
        """
        if self._running:
            return
        if self._end <= self._start:
            return
        self._running = True
        self._cursor = self._start
        self._pipeline = []
        self.bus.add_store_snooper(self._snoop_store)
        self.epoch.begin_sweep()

    # ------------------------------------------------------------------
    # Race handling: store snoop from the bus
    # ------------------------------------------------------------------

    def _snoop_store(self, address: int, size: int) -> None:
        """Mark any in-flight word overlapped by a main-pipeline store.

        Subscribed only while a pass runs, see :meth:`kick`.
        """
        lo = address & ~0x7
        hi = (address + size + 7) & ~0x7
        for entry in self._pipeline:
            if lo <= entry.address < hi:
                entry.dirty = True
                self.stats.reloads += 1

    # ------------------------------------------------------------------
    # Cycle-by-cycle advancement
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Advance the engine by one memory slot.

        Returns True while the pass is still running.  Each step either
        issues the next word's load or retires the oldest in-flight word
        (writing back an invalidation when required).  A dirty in-flight
        word is reloaded instead of retired.
        """
        if not self._running:
            return False

        # Retire the oldest in-flight word once its verdict is available
        # (i.e. once a younger load has been issued behind it).
        if len(self._pipeline) == 2 or (self._cursor >= self._end and self._pipeline):
            entry = self._pipeline.pop(0)
            if entry.dirty:
                # Main pipeline wrote this word while in flight: reload.
                entry.value = self.bus.bank_for(entry.address, 8).read_capability(
                    entry.address
                )
                entry.dirty = False
                self._pipeline.insert(0, entry)
                self.stats.words_loaded += 1
                return True
            if entry.value.tag and self.revocation_map.is_revoked(entry.value.base):
                # Single tag-clearing write (the AND-ed tag halves let us
                # invalidate with one 32-bit store — section 7.2.2).
                self.bus.bank_for(entry.address, 8).clear_tag(entry.address)
                self.stats.invalidations += 1
            if not self._pipeline and self._cursor >= self._end:
                self._finish()
                return False
            return True

        # Otherwise issue the next load.
        if self._cursor < self._end:
            address = self._cursor
            self._cursor += 8
            value = self.bus.bank_for(address, 8).read_capability(address)
            self._pipeline.append(_InFlight(address, value))
            self.stats.words_loaded += 1
            return True

        self._finish()
        return False

    def _finish(self) -> None:
        self._running = False
        self.bus.remove_store_snooper(self._snoop_store)
        self._pipeline = []
        self.epoch.end_sweep()
        self.stats.passes += 1

    def run_to_completion(self, cpu_blocked: bool = True, detailed: bool = False) -> int:
        """Drive the engine to the end of its pass.

        Returns the wall-clock cycles the pass occupied, computed by the
        core model's idle-beat accounting (the engine steals load-store
        slots; with the CPU blocked it gets nearly all of them).

        With ``detailed=True`` the two-stage pipeline is stepped word by
        word (needed when exercising the store-snoop race); the default
        bulk path visits only tagged granules, which is functionally
        identical when no other agent runs concurrently.
        """
        if not self._running:
            return 0
        start, end = self._cursor, self._end
        if detailed:
            while self.step():
                pass
        else:
            # Retire any in-flight words first, then bulk-process.
            for entry in self._pipeline:
                if entry.dirty:
                    entry.value = self.bus.bank_for(entry.address, 8).read_capability(
                        entry.address
                    )
                if entry.value.tag and self.revocation_map.is_revoked(
                    entry.value.base
                ):
                    self.bus.bank_for(entry.address, 8).clear_tag(entry.address)
                    self.stats.invalidations += 1
            self._pipeline = []
            if self._cursor < self._end:
                bank = self.bus.bank_for(self._cursor, 8)
                for address in bank.tagged_granules(self._cursor, self._end):
                    value = bank.read_capability(address)
                    self.stats.words_loaded += 1
                    if value.tag and self.revocation_map.is_revoked(value.base):
                        bank.clear_tag(address)
                        self.stats.invalidations += 1
                self._cursor = self._end
            if self._running:
                self._finish()
        if self.core_model is not None:
            wall = self.core_model.sweep_cycles_hardware(
                end - start, cpu_blocked=cpu_blocked
            )
            if self.obs is not None and wall:
                # The engine runs in the load-store unit's idle beats:
                # its pass occupies [now, now + wall) of wall-clock.
                now = self.core_model.cycles
                self.obs.tracer.complete(
                    "hw-revoker-pass",
                    "revoker",
                    now,
                    now + wall,
                    track="revoker",
                    bytes=end - start,
                    blocked=cpu_blocked,
                )
            return wall
        return 0

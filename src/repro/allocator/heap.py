"""The heap-allocator compartment: spatial + temporal safety (section 5.1).

:class:`CheriHeap` composes the dlmalloc chunk layer with the temporal-
safety machinery and hands out *capabilities*, not addresses:

* **Spatial safety** — ``malloc`` sets exact bounds on the returned
  capability, excluding the header; allocations too large for a precise
  E/B/T encoding are padded and aligned so the bounds are exact (the
  ~0.19 % fragmentation cost of section 3.2.3).
* **Temporal safety** — ``free`` paints the revocation bits, zeroes the
  memory, and quarantines the chunk under the current epoch; memory is
  reused only after a complete revocation sweep, so allocations can
  never temporally alias.  UAF loads are blocked immediately by the
  load filter — as soon as ``free()`` returns.

Four operating modes reproduce the paper's benchmark configurations
(section 7.2.2): ``BASELINE`` (spatial only), ``METADATA`` (bits painted
but no sweeps), ``SOFTWARE`` and ``HARDWARE`` (full temporal safety with
the respective revoker).

Cycle accounting: when a core model is attached, every operation charges
mechanistic costs — instruction counts for the allocator fast path,
load/store costs for metadata touches, bulk zeroing/painting loops, and
sweep costs via the revokers.  A pluggable ``wait_policy`` maps hardware
revoker wall-cycles to CPU cycles so the RTOS can model blocked threads,
completion polling (Flute lacks the completion interrupt) and the extra
context-switch state of the stack high-water mark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.allocator.dlmalloc import (
    ALIGNMENT,
    HEADER_SIZE,
    Chunk,
    DlMalloc,
    HeapExhausted,
)
from repro.allocator.quarantine import Quarantine
from repro.capability import Capability, Permission
from repro.capability.bounds import representable_granule
from repro.memory.bus import SystemBus
from repro.memory.layout import Region
from repro.memory.revocation_map import GRANULE_BYTES, RevocationMap
from repro.pipeline.model import CoreModel
from repro.revoker.epoch import EpochCounter
from repro.revoker.hardware import REG_END, REG_START, BackgroundRevoker
from repro.revoker.software import SoftwareRevoker


class TemporalSafetyMode(enum.Enum):
    """The four allocator configurations of the paper's section 7.2.2."""

    BASELINE = "baseline"
    METADATA = "metadata"
    SOFTWARE = "software"
    HARDWARE = "hardware"


class HeapError(Exception):
    """Base class for allocator API misuse."""


class OutOfMemory(HeapError):
    """No memory available even after revocation."""


class InvalidFree(HeapError):
    """Free of a pointer that does not name a live allocation's base."""


class DoubleFree(HeapError):
    """Second free of the same allocation."""


@dataclass
class HeapStats:
    """Counters for tests and the benchmark harness."""

    mallocs: int = 0
    frees: int = 0
    revocation_passes: int = 0
    bytes_allocated: int = 0
    bytes_freed: int = 0
    fragmentation_padding: int = 0


#: Instruction counts for the allocator fast paths, charged through the
#: core model.  Derived from the shape of the CHERIoT RTOS allocator's
#: entry paths (argument validation, lock, bin selection, unlock,
#: capability derivation) rather than measured from its binary.
MALLOC_BASE_INSTRS = 45
FREE_BASE_INSTRS = 40
#: Deriving the returned capability: csetaddr + csetbounds + candperm.
CAP_DERIVE_INSTRS = 3

#: Permissions of every capability ``malloc`` returns: read/write data
#: and capabilities, global, with deep load authority.
HEAP_PERMS = frozenset(
    {
        Permission.GL,
        Permission.LD,
        Permission.SD,
        Permission.MC,
        Permission.LM,
        Permission.LG,
    }
)


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


class CheriHeap:
    """The allocator compartment over one revocable heap region."""

    #: Default revocation trigger: sweep once quarantine accumulates
    #: half of the heap ("when enough freed memory has accumulated in
    #: quarantine" — section 5.1).  Sweeping less often amortizes the
    #: fixed whole-heap scan over more freed bytes, which is what lets
    #: the software revoker undercut the no-HWM baseline at small
    #: allocation sizes on Ibex (section 7.2.2).
    DEFAULT_QUARANTINE_FRACTION = 0.5

    def __init__(
        self,
        bus: SystemBus,
        region: Region,
        revocation_map: RevocationMap,
        memory_root: Capability,
        mode: TemporalSafetyMode = TemporalSafetyMode.HARDWARE,
        software_revoker: Optional[SoftwareRevoker] = None,
        hardware_revoker: Optional[BackgroundRevoker] = None,
        epoch: Optional[EpochCounter] = None,
        core_model: Optional[CoreModel] = None,
        quarantine_threshold: Optional[int] = None,
        wait_policy: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.bus = bus
        self.region = region
        self.revocation_map = revocation_map
        self.memory_root = memory_root
        #: ``memory_root`` with the ``malloc`` permission mask applied.
        #: ``candperm`` commutes with the address and bounds moves, so
        #: masking once here leaves each ``malloc`` two derivations and
        #: returns the same capability (the simulated charge is still the
        #: allocator's three instructions, ``CAP_DERIVE_INSTRS``).
        self._payload_root = memory_root.and_perms(HEAP_PERMS)
        self.mode = mode
        self.software_revoker = software_revoker
        self.hardware_revoker = hardware_revoker
        self.core_model = core_model
        self.wait_policy = wait_policy
        if mode is TemporalSafetyMode.SOFTWARE and software_revoker is None:
            raise ValueError("SOFTWARE mode requires a software revoker")
        if mode is TemporalSafetyMode.HARDWARE and hardware_revoker is None:
            raise ValueError("HARDWARE mode requires a hardware revoker")
        if epoch is not None:
            self.epoch = epoch
        elif software_revoker is not None:
            self.epoch = software_revoker.epoch
        elif hardware_revoker is not None:
            self.epoch = hardware_revoker.epoch
        else:
            self.epoch = EpochCounter()
        self.dl = DlMalloc(
            region.base,
            region.size,
            chunk_granularity=revocation_map.granule_bytes,
        )
        self.quarantine = Quarantine()
        self.quarantine_threshold = (
            quarantine_threshold
            if quarantine_threshold is not None
            else int(region.size * self.DEFAULT_QUARANTINE_FRACTION)
        )
        self.stats = HeapStats()
        #: Optional :class:`repro.obs.Telemetry`; instrumentation sites
        #: below are guarded by one ``is not None`` check each.
        self.obs = None
        # Live allocations: capability base -> (chunk, padded payload base).
        self._live: Dict[int, Chunk] = {}
        # Cycle at which the most recent *background* hardware pass
        # completes.  Functionally the pass's tag-clearing is applied
        # when it is kicked (conservative: stale tags die no later than
        # hardware would kill them), but its results become reapable
        # only once this wall-clock deadline passes — so an exhausted
        # malloc genuinely waits for the engine (section 3.3.3).
        self._pass_completion_cycle = 0

    # ------------------------------------------------------------------
    # Cost charging helpers
    # ------------------------------------------------------------------

    def _charge(self, cycles: int) -> None:
        if self.core_model is not None:
            self.core_model.charge(cycles)

    def _charge_allocator_work(self, base_instrs: int) -> None:
        """Charge the fast-path instructions plus metadata touches."""
        if self.core_model is None:
            return
        ops = self.dl.ops
        p = self.core_model.params
        cycles = (
            base_instrs
            + ops.header_reads * p.load_cycles
            + ops.header_writes * p.store_cycles
            + ops.list_ops * 2
        )
        ops.reset()
        self.core_model.charge(cycles)

    def _paint_cycles(self, nbytes: int) -> int:
        """Cost of painting/clearing revocation bits over ``nbytes``.

        One 32-bit MMIO store covers 32 granules (256 bytes of heap),
        plus two loop instructions per store.
        """
        if self.core_model is None:
            return 0
        words = max(1, (nbytes // GRANULE_BYTES + 31) // 32)
        return words * (self.core_model.params.store_cycles + 2)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _padded_request(self, size: int) -> "tuple[int, int]":
        """Payload size and alignment for an exactly-representable cap.

        Returns ``(rounded_size, alignment)``: lengths above 511 bytes
        need ``2**e``-aligned bounds, so both the length and the payload
        base are rounded to the encoding granule (section 3.2.3) — what
        ``crrl`` and ``cram`` give, from one exponent computation.
        """
        granule = representable_granule(size)
        return (size + granule - 1) & -granule, max(granule, ALIGNMENT)

    def malloc(self, size: int) -> Capability:
        """Allocate ``size`` bytes; returns a bounded, owned capability.

        The capability's bounds cover exactly the (representability-
        rounded) allocation; the header is excluded.  Raises
        :class:`OutOfMemory` when the heap cannot satisfy the request
        even after revocation reaps quarantine.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin("malloc", "alloc", bytes=size)
            obs.attributor.push("allocator")
        try:
            return self._malloc(size)
        finally:
            if obs is not None:
                obs.attributor.pop()
                obs.tracer.end(span)

    def _malloc(self, size: int) -> Capability:
        if self._pass_completion_cycle:
            self._maybe_complete_pass()
        rounded, align = self._padded_request(size)
        # Over-allocate so an aligned payload base fits inside the chunk.
        slack = align - ALIGNMENT if align > ALIGNMENT else 0
        request = rounded + slack
        try:
            chunk = self.dl.allocate(request)
        except HeapExhausted:
            chunk = self._allocate_with_revocation(request)
        address = chunk.address
        chunk_size = chunk.size
        payload = _round_up(address + HEADER_SIZE, align)
        assert payload + rounded <= address + chunk_size, (
            "alignment slack miscomputed"
        )
        stats = self.stats
        stats.fragmentation_padding += chunk_size - HEADER_SIZE - size

        baseline = self.mode is TemporalSafetyMode.BASELINE
        if not baseline:
            # Reused memory must present clear revocation bits.
            self.revocation_map.clear(address, chunk_size)

        cap = self._payload_root.set_address(payload).set_bounds(
            rounded, exact=True
        )
        self._live[payload] = chunk
        stats.mallocs += 1
        stats.bytes_allocated += rounded
        self._charge_allocator_work(MALLOC_BASE_INSTRS + CAP_DERIVE_INSTRS)
        core = self.core_model
        if not baseline and core is not None:
            core.charge(self._paint_cycles(chunk_size))
        return cap

    def _now(self) -> int:
        return self.core_model.cycles if self.core_model is not None else 0

    def _maybe_complete_pass(self) -> None:
        """Collect the results of a finished background pass."""
        if (
            self._pass_completion_cycle
            and self._now() >= self._pass_completion_cycle
        ):
            self._pass_completion_cycle = 0
            self._reap()

    def _allocate_with_revocation(self, size: int) -> Chunk:
        """Retry a failed ``dl.allocate(size)`` after revoking.

        The caller has made, and counted, the first attempt.
        """
        if self.mode is TemporalSafetyMode.HARDWARE:
            # A background pass may already be sweeping: block until it
            # completes (the paper's 128 KiB case — "spends most of its
            # time waiting for the revoker"), then reap and retry.
            remaining = self._pass_completion_cycle - self._now()
            if remaining > 0:
                charged = (
                    self.wait_policy(remaining)
                    if self.wait_policy is not None
                    else remaining
                )
                self._charge(charged)
                self._pass_completion_cycle = 0
                self._reap()
                try:
                    return self.dl.allocate(size)
                except HeapExhausted:
                    pass
        if self.mode in (TemporalSafetyMode.SOFTWARE, TemporalSafetyMode.HARDWARE):
            # Low on memory: force revocation passes until quarantine
            # yields the memory back or nothing is left to reap.
            for _ in range(2):
                self.revoke_now()
                try:
                    return self.dl.allocate(size)
                except HeapExhausted:
                    continue
        raise OutOfMemory(f"cannot allocate {size} bytes (heap {self.region.size})")

    # ------------------------------------------------------------------
    # Free
    # ------------------------------------------------------------------

    def free(self, cap: Capability) -> None:
        """Free an allocation; quarantines until provably unreferenced.

        Raises :class:`InvalidFree` for untagged capabilities or
        pointers that are not the base of a live allocation (including
        interior pointers — detected via the revocation bitmap in
        non-baseline modes, and by the allocator's own metadata here),
        and :class:`DoubleFree` for repeated frees.
        """
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin("free", "alloc", bytes=cap.length)
            obs.attributor.push("allocator")
        try:
            self._free(cap)
        finally:
            if obs is not None:
                obs.attributor.pop()
                obs.tracer.end(span)

    def _free(self, cap: Capability) -> None:
        if self._pass_completion_cycle:
            self._maybe_complete_pass()
        if not cap.tag:
            raise InvalidFree("free of untagged capability")
        base = cap.base
        chunk = self._live.pop(base, None)
        if chunk is None:
            if self.revocation_map.is_revoked(base):
                raise DoubleFree(f"free of already-freed memory at {base:#x}")
            if any(c.address < base < c.end for c in self._live.values()):
                raise InvalidFree(f"free of interior pointer {base:#x}")
            raise InvalidFree(f"no live allocation at {base:#x}")
        address = chunk.address
        chunk_size = chunk.size
        payload_size = chunk_size - HEADER_SIZE
        self.stats.frees += 1
        self.stats.bytes_freed += payload_size
        self._charge_allocator_work(FREE_BASE_INSTRS)

        mode = self.mode
        if mode is TemporalSafetyMode.BASELINE:
            self.dl.release(chunk)
            self._charge_allocator_work(0)
            return

        # Paint the revocation bits, then zero the freed memory.
        core = self.core_model
        self.revocation_map.paint(address, chunk_size)
        if core is not None:
            core.charge(self._paint_cycles(chunk_size))
        self.bus.fill(address + HEADER_SIZE, payload_size, 0)
        if core is not None:
            core.charge(core.zero_bytes_cycles(payload_size))

        if mode is TemporalSafetyMode.METADATA:
            # Measurement mode: metadata costs without sweeping — the
            # bits come straight back off and memory is reused.
            self.revocation_map.clear(address, chunk_size)
            if core is not None:
                core.charge(self._paint_cycles(chunk_size))
            self.dl.release(chunk)
            self._charge_allocator_work(0)
            return

        quarantine = self.quarantine
        quarantine.add(chunk, self.epoch.value)
        if quarantine.total_bytes >= self.quarantine_threshold:
            # Enough freed memory has accumulated: start a pass.  With
            # the background engine this does NOT block — the revoker
            # advances in the load-store unit's idle slots while the
            # allocator continues servicing requests (section 3.3.3);
            # only allocation failure forces a blocking wait.
            if mode is TemporalSafetyMode.HARDWARE:
                if self._pass_completion_cycle == 0:
                    self._run_hardware_pass(blocking=False)
                    self.stats.revocation_passes += 1
            else:
                self.revoke_now()

    # ------------------------------------------------------------------
    # Revocation
    # ------------------------------------------------------------------

    def revoke_now(self) -> int:
        """Run one revocation pass and reap safe quarantine lists.

        Returns the number of chunks returned to the free lists.
        """
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                "revocation-sweep", "revoker", mode=self.mode.value
            )
            obs.attributor.push("revoker")
        try:
            if self.mode is TemporalSafetyMode.SOFTWARE:
                assert self.software_revoker is not None
                self.software_revoker.sweep(self.region.base, self.region.top)
            elif self.mode is TemporalSafetyMode.HARDWARE:
                assert self.hardware_revoker is not None
                self._run_hardware_pass()
            else:
                return 0
            self.stats.revocation_passes += 1
            return self._reap()
        finally:
            if obs is not None:
                obs.attributor.pop()
                obs.tracer.end(span)

    #: CPU slowdown from bus arbitration while a background pass runs
    #: concurrently with application code: the engine only takes idle
    #: beats, so the app loses just the occasional arbitration cycle.
    BACKGROUND_INTERFERENCE = 0.05

    def _run_hardware_pass(self, blocking: bool = True) -> None:
        hw = self.hardware_revoker
        hw.mmio_write(REG_START, self.region.base)
        hw.mmio_write(REG_END, self.region.top)
        hw.kick()
        wall = hw.run_to_completion(cpu_blocked=blocking)
        if blocking:
            # Out of memory: the allocating thread waits for completion.
            charged = self.wait_policy(wall) if self.wait_policy is not None else wall
        else:
            # Background pass: the CPU keeps running; it pays only the
            # kick MMIO writes (already counted) and bus arbitration.
            # The pass's *results* become reapable only after its wall
            # time has elapsed.
            charged = int(wall * self.BACKGROUND_INTERFERENCE)
            self._pass_completion_cycle = self._now() + wall
        self._charge(charged)

    def _reap(self) -> int:
        if self._now() < self._pass_completion_cycle:
            return 0  # the background pass has not finished yet
        ready = self.quarantine.reap(self.epoch.value)
        for chunk in ready:
            self.revocation_map.clear(chunk.address, chunk.size)
            self._charge(self._paint_cycles(chunk.size))
            self.dl.release(chunk)
        self._charge_allocator_work(0)
        return len(ready)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    @property
    def quarantined_bytes(self) -> int:
        return self.quarantine.total_bytes

    def iter_quarantined(self):
        """Yield every chunk currently held in quarantine."""
        yield from self.quarantine.iter_chunks()

    def check_invariants(self) -> List[str]:
        """Audit the allocator's safety invariants; returns violations.

        The fault-injection monitor calls this after every injection: a
        non-empty list means heap state an attacker (or particle) has
        silently corrupted past the architectural checks.  Checked:

        * live allocations lie inside the heap region and do not overlap;
        * no live allocation's memory is painted in the revocation map
          (a painted live granule would untag legitimate pointers — DoS,
          not a safety escape, but still an invariant break);
        * every quarantined chunk is fully painted (an unpainted granule
          in quarantine is reachable through a stale pointer: a genuine
          temporal-safety escape);
        * quarantined chunks do not alias live allocations.
        """
        problems: List[str] = []
        live = sorted(self._live.items())
        prev_end = self.region.base
        prev_base = None
        for payload, chunk in live:
            if chunk.address < self.region.base or chunk.end > self.region.top:
                problems.append(
                    f"live chunk {chunk.address:#x} outside heap region"
                )
            if chunk.address < prev_end and prev_base is not None:
                problems.append(
                    f"live chunks at {prev_base:#x} and {payload:#x} overlap"
                )
            prev_end = chunk.end
            prev_base = payload
            if self.mode is not TemporalSafetyMode.BASELINE:
                for granule in range(
                    chunk.address, chunk.end, self.revocation_map.granule_bytes
                ):
                    if self.revocation_map.is_revoked(granule):
                        problems.append(
                            f"live allocation {payload:#x} has revoked "
                            f"granule {granule:#x}"
                        )
                        break
        live_spans = [(c.address, c.end) for _, c in live]
        for chunk in self.quarantine.iter_chunks():
            if self.mode is not TemporalSafetyMode.BASELINE:
                for granule in range(
                    chunk.address, chunk.end, self.revocation_map.granule_bytes
                ):
                    if not self.revocation_map.is_revoked(granule):
                        problems.append(
                            f"quarantined chunk {chunk.address:#x} has "
                            f"unpainted granule {granule:#x}"
                        )
                        break
            for base, end in live_spans:
                if chunk.address < end and base < chunk.end:
                    problems.append(
                        f"quarantined chunk {chunk.address:#x} aliases "
                        f"live allocation at {base:#x}"
                    )
        return problems

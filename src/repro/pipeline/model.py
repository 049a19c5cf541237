"""Core timing models: turning retired instructions into cycles.

The paper evaluates two cores with different design trade-offs (section
4): **Flute**, a 5-stage in-order pipeline with a 65-bit (64 + tag)
memory bus, and **Ibex**, an area-optimized 2/3-stage core whose data
bus is only 33 bits wide, so every capability-width access takes two bus
beats.

A :class:`CoreModel` consumes the per-instruction retire stream from
:class:`repro.isa.executor.CPU` and accumulates cycles according to a
mechanistic cost table: per-class base cost, extra beats for
capability-width memory operations, load-to-use hazards, the load
filter's extra latency (hidden inside Flute's MEM→WB stages, visible on
Ibex's short pipeline), and branch/jump redirect penalties.

The same model exposes *bulk* helpers (``zero_bytes_cycles``,
``sweep_cycles_software``, ...) so system-level components — the
compartment switcher's stack clearing, the revokers' sweeps — charge
cycles from one consistent cost base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.isa.instructions import (
    ALU,
    BRANCH,
    CAP,
    CLOAD,
    CSR,
    CSTORE,
    DIV,
    JUMP,
    LOAD,
    MUL,
    STORE,
    SYSTEM,
)


@dataclass(frozen=True)
class CoreTimingParams:
    """The per-core cost table.  All values in cycles (or bus beats)."""

    name: str
    frequency_mhz: float
    pipeline_stages: int
    #: Bus beats needed for one capability-width (8-byte) access.
    cap_access_beats: int
    #: Base cost of a data load (includes the memory access slot).
    load_cycles: int
    #: Base cost of a data store.
    store_cycles: int
    #: Extra stall when an instruction consumes a just-loaded register.
    load_use_penalty: int
    #: Extra load-to-use latency on ``clc`` when the load filter is on.
    #: Zero on Flute (hidden in MEM/WB, Figure 4); one on Ibex.
    load_filter_penalty: int
    #: Redirect cost of a taken branch.
    branch_taken_penalty: int
    #: Redirect cost of a jump (jal/jalr).
    jump_penalty: int
    mul_cycles: int
    div_cycles: int
    csr_cycles: int = 1
    #: Whether the revocation-bit lookup contends for the core's single
    #: memory port, costing one slot on *every* capability load.  True
    #: on the area-optimized Ibex, whose implementation "reuses the load
    #: checks in the load-capability logic of the main core"; False on
    #: Flute, where a dedicated read port hides it (Figure 4).
    load_filter_port_conflict: bool = False


class CoreModel:
    """Retire-stream cycle accounting for one core configuration."""

    def __init__(self, params: CoreTimingParams, load_filter_enabled: bool = False):
        self.params = params
        self.load_filter_enabled = load_filter_enabled
        #: Cycles elapsed on this core: retired instructions plus every
        #: modelled charge.
        self.cycles = 0
        # Hazard tracking: destination register of the most recent load
        # and the cycle at which its value becomes forwardable.
        self._pending_load_reg: Optional[int] = None
        self._pending_ready_at: int = 0
        # Memoised bulk charges.  Each is a pure function of its
        # arguments and the frozen params, and lives on this model, so
        # no other core's result can ever be returned.
        self._zero_cycles: Dict[int, int] = {}
        self._mix_cycles: Dict[Tuple[int, float], int] = {}
        # Pre-classified charges, folded from the params (and the
        # load-filter configuration) once here so retire() never
        # re-derives them: the base cost per timing class, and how many
        # cycles after a load retires its value becomes forwardable.
        p = params
        filter_conflict = (
            1 if load_filter_enabled and p.load_filter_port_conflict else 0
        )
        self._load_ready = p.load_use_penalty
        self._cload_ready = p.load_use_penalty + (
            p.load_filter_penalty if load_filter_enabled else 0
        )
        self._base_cost = {
            ALU: 1,
            CAP: 1,
            MUL: p.mul_cycles,
            DIV: p.div_cycles,
            LOAD: p.load_cycles,
            CLOAD: p.load_cycles + (p.cap_access_beats - 1) + filter_conflict,
            STORE: p.store_cycles,
            CSTORE: p.store_cycles + (p.cap_access_beats - 1),
            BRANCH: 1,
            JUMP: 1 + p.jump_penalty,
            CSR: p.csr_cycles,
            SYSTEM: 1,
        }

    @property
    def name(self) -> str:
        return self.params.name

    def reset(self) -> None:
        self.cycles = 0
        self._pending_load_reg = None
        self._pending_ready_at = 0

    # ------------------------------------------------------------------
    # Retire-stream interface (called by the executor)
    # ------------------------------------------------------------------

    def retire(self, instr, info) -> None:
        """Charge one retired instruction.

        The base cost comes from the table pre-classified in
        ``__init__`` and the hazard registers from the instruction
        (``source_regs``, ``load_dest``); only the dynamic parts
        (load-to-use stalls, taken branches, the load hazard window) are
        computed here.  The charge is bit-identical to the seed's
        re-classifying if-chain — including its quirk that a stall only
        survives into the cycle count for single-cycle (ALU/CAP)
        consumers, while other classes overwrite it with their class
        cost.  Only known mnemonics retire: an unknown one traps first.
        """
        cls = instr.timing_class

        # Load-to-use hazard: stall if this instruction consumes the
        # register a previous load is still producing.
        stall = 0
        if self._pending_load_reg is not None:
            if self._pending_load_reg in instr.source_regs:
                stall = self._pending_ready_at - self.cycles
                if stall < 0:
                    stall = 0
            self._pending_load_reg = None

        cost = self._base_cost[cls]
        if cls == ALU or cls == CAP:
            cost += stall
        elif cls == BRANCH:
            if info.branch_taken:
                cost += self.params.branch_taken_penalty
        self.cycles += cost
        load_dest = instr.load_dest
        if load_dest is not None:
            # The loaded value becomes forwardable load_use_penalty (plus
            # any load-filter latency) cycles after the load *retires*.
            self._pending_load_reg = load_dest
            self._pending_ready_at = self.cycles + (
                self._cload_ready if cls == CLOAD else self._load_ready
            )

    # ------------------------------------------------------------------
    # Superblock batch accounting (used by the executor's block cache)
    # ------------------------------------------------------------------

    def precompute_block(self, pairs) -> "BlockCharge":
        """Pre-classify a straight-line block into one :class:`BlockCharge`.

        ``pairs`` is the block's ``(instr, info)`` retire stream, all of
        it static (no branches inside a block; load destinations are
        fields of the instruction).  The aggregate is computed by
        replaying the stream through :meth:`retire` on a scratch model,
        so it is bit-identical to single-stepping by construction rather
        than by a parallel re-implementation of the cost rules.

        Two things cannot be pre-resolved and stay symbolic:

        * the *entry* load-to-use hazard — a load retired immediately
          before the block may stall the block's first instruction by a
          runtime-dependent amount; and
        * the *exit* pending-load state — a trailing load arms the
          hazard window for whatever retires after the block.

        Both only ever involve the block's first/last instruction
        because :meth:`retire` closes the hazard window after exactly
        one consumer; the interior chain is fully static (shifting the
        whole block by the entry stall shifts every interior
        ``ready_at`` and ``cycles`` identically, so interior stalls are
        invariant).
        """
        scratch = CoreModel(self.params, self.load_filter_enabled)
        prefix = []
        for instr, info in pairs:
            scratch.retire(instr, info)
            prefix.append(scratch.cycles)
        first = pairs[0][0]
        return BlockCharge(
            cycles=scratch.cycles,
            entry_sources=first.source_regs,
            # retire() folds a stall into the cycle count only for
            # single-cycle consumers.
            entry_absorbs_stall=first.timing_class in (ALU, CAP),
            exit_pending_reg=scratch._pending_load_reg,
            exit_ready_offset=scratch._pending_ready_at - scratch.cycles,
            prefix_cycles=tuple(prefix),
        )

    def charge_block(self, bc: "BlockCharge", already_charged: int = 0) -> None:
        """Charge one pre-classified straight-line block in one call.

        Equivalent to calling :meth:`retire` for every instruction of
        the block: the entry hazard is resolved against the live
        pending-load state, the pre-summed interior costs land in one
        addition each, and the exit pending-load state is re-armed.

        ``already_charged`` is the portion of ``bc.cycles`` the executor
        streamed into ``cycles`` ahead of the block's memory operations
        (so MMIO devices and store snoopers invoked from inside the
        block observe the same cycle count single-stepping would have
        shown them); only the remainder is added here.
        """
        entry_stall = 0
        if self._pending_load_reg is not None:
            if self._pending_load_reg in bc.entry_sources:
                entry_stall = self._pending_ready_at - (
                    self.cycles - already_charged
                )
                if entry_stall < 0:
                    entry_stall = 0
            self._pending_load_reg = None
        self.cycles += (
            bc.cycles
            - already_charged
            + (entry_stall if bc.entry_absorbs_stall else 0)
        )
        if bc.exit_pending_reg is not None:
            self._pending_load_reg = bc.exit_pending_reg
            self._pending_ready_at = self.cycles + bc.exit_ready_offset

    # ------------------------------------------------------------------
    # Bulk cost helpers (used by the RTOS / allocator / revokers)
    # ------------------------------------------------------------------

    def charge(self, cycles: int) -> None:
        """Directly charge cycles for modelled (non-simulated) work."""
        self.cycles += int(cycles)

    def mixed_instr_cycles(self, count: int, mem_fraction: float) -> int:
        """Cost of ``count`` hand-written instructions, ``mem_fraction``

        of them stores (register spills, trusted-stack maintenance) and
        the rest single-cycle."""
        key = (count, mem_fraction)
        cycles = self._mix_cycles.get(key)
        if cycles is None:
            mem = int(count * mem_fraction)
            cycles = (count - mem) + mem * self.params.store_cycles
            self._mix_cycles[key] = cycles
        return cycles

    def zero_bytes_cycles(self, nbytes: int) -> int:
        """Cost of zeroing ``nbytes`` with a capability-width store loop.

        The loop writes 8 bytes per iteration (``csc`` of NULL) plus one
        cycle of loop overhead per two stores (unrolled x2).
        """
        cycles = self._zero_cycles.get(nbytes)
        if cycles is None:
            cycles = 0
            if nbytes > 0:
                p = self.params
                words = (nbytes + 7) // 8
                store_cost = p.store_cycles + (p.cap_access_beats - 1)
                cycles = words * store_cost + (words + 1) // 2
            self._zero_cycles[nbytes] = cycles
        return cycles

    def sweep_cycles_software(self, nbytes: int) -> int:
        """Software revocation sweep over ``nbytes`` (section 3.3.2).

        The sweep loads each capability word and stores it back — one
        ``clc`` and one ``csc`` per 8 bytes, unrolled by two so the
        load-to-use delay of the filter is filled by the second load,
        plus loop increment and branch per pair.
        """
        if nbytes <= 0:
            return 0
        p = self.params
        words = (nbytes + 7) // 8
        load_cost = p.load_cycles + (p.cap_access_beats - 1)
        store_cost = p.store_cycles + (p.cap_access_beats - 1)
        per_pair = 2 * (load_cost + store_cost) + 2  # addi + bne
        return (words + 1) // 2 * per_pair

    def sweep_cycles_hardware(
        self, nbytes: int, tagged_fraction: float = 0.05, cpu_blocked: bool = True
    ) -> int:
        """Wall-clock cycles for a background hardware sweep.

        The two-stage pipelined engine keeps two capability words in
        flight and sustains one word per ``cap_access_beats`` bus beats
        when the main pipeline leaves the load-store unit idle; it only
        writes back words whose tag it cleared (one write, exploiting the
        AND-ed tag halves — section 7.2.2).  When the CPU is busy the
        engine gets only the idle beats; when the CPU is blocked waiting
        on the revoker (the benchmark's 128 KiB case) it gets nearly all
        of them.
        """
        if nbytes <= 0:
            return 0
        p = self.params
        words = (nbytes + 7) // 8
        read_beats = words * p.cap_access_beats
        write_beats = int(words * tagged_fraction) * 1  # single-write invalidate
        beats = read_beats + write_beats
        if not cpu_blocked:
            # Paper: embedded code performs memory ops < 50% of cycles,
            # so the engine finds an idle beat at least every other cycle.
            beats *= 2
        return beats


@dataclass(frozen=True, slots=True)
class BlockCharge:
    """One straight-line block's pre-classified cost vector.

    Produced by :meth:`CoreModel.precompute_block`, consumed by
    :meth:`CoreModel.charge_block`.  ``cycles`` is the block's static
    total (interior hazards included); the remaining fields parameterize
    the only two runtime-dependent effects, the entry stall and the exit
    pending-load window.
    """

    cycles: int
    entry_sources: tuple
    entry_absorbs_stall: bool
    exit_pending_reg: Optional[int]
    exit_ready_offset: int
    #: Cumulative cycle cost after each instruction of the block, used
    #: by the executor to stream cycles ahead of memory operations so
    #: MMIO reads (e.g. the CLINT's ``mtime``) and store snoopers see
    #: exact mid-block cycle counts.
    prefix_cycles: tuple = ()


def flute_params() -> CoreTimingParams:
    """The Flute prototype: 5-stage, 65-bit bus, filter fully hidden."""
    return CoreTimingParams(
        name="flute",
        frequency_mhz=100.0,
        pipeline_stages=5,
        cap_access_beats=1,
        load_cycles=1,
        store_cycles=1,
        load_use_penalty=1,
        load_filter_penalty=0,
        branch_taken_penalty=2,
        jump_penalty=1,
        mul_cycles=1,
        div_cycles=16,
    )


def ibex_params() -> CoreTimingParams:
    """CHERIoT-Ibex: 2/3-stage, 33-bit bus (two beats per capability),

    with the load filter's extra cycle visible as load-to-use latency."""
    return CoreTimingParams(
        name="ibex",
        frequency_mhz=100.0,
        pipeline_stages=3,
        cap_access_beats=2,
        load_cycles=2,
        store_cycles=2,
        load_use_penalty=0,
        load_filter_penalty=1,
        load_filter_port_conflict=True,
        branch_taken_penalty=2,
        jump_penalty=2,
        mul_cycles=2,
        div_cycles=16,
    )

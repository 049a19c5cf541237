"""Superblock translation cache: fuse straight-line runs into one dispatch.

The decode-once/execute-many table (:func:`repro.isa.executor._decode_program`)
still pays the full per-instruction step overhead — retire-info
construction, per-retire timing classification, fetch-window and budget
checks — on every instruction.  This module fuses *straight-line runs*
of pre-decoded instructions into :class:`Block` objects executed with a
single dispatch from the run loop:

* the run's bound steps fire back-to-back from a pre-built entry tuple
  (no per-instruction fetch, bounds or window checks — the window is
  checked once for the whole block);
* retired-instruction counts are batch-added, and cycle accounting is
  one :meth:`repro.pipeline.CoreModel.charge_block` call against a cost
  vector pre-classified at translation time;
* the block's *terminator* — the branch, jump, compartment call, CSR
  access or system instruction that ends the run — executes inside the
  same dispatch with the ordinary per-instruction semantics (dynamic
  branch-taken cost, trap conversion, sentry handling).

Blocks never change observable architectural behaviour: translation is
driven off the same decoded table (which no store can change, so no
block goes stale), mid-block faults replay the retired prefix through
the ordinary ``retire()`` path before converting the fault exactly like
a single step would, and the executor refuses the fused path entirely
(per step) whenever an observer is attached — a ``pre_step_hook``
(fault injection) or retire hooks (profiling) — so those consumers see
the same per-instruction stream as always.

A *fusable* instruction is one that cannot redirect control flow, never
reads the program counter outside of fault construction, and cannot
change the interrupt posture or trap plumbing.  Memory and capability
instructions *are* fusable even though they can fault: the executor
keeps ``cpu.pc`` current through the block precisely so a mid-block
fault carries the right PC.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

from .instructions import (
    ALU,
    CAP,
    CLOAD,
    CSTORE,
    DIV,
    INSTRUCTION_SPECS,
    LOAD,
    MUL,
    STORE,
)

#: Timing classes whose instructions are straight-line by construction.
_FUSABLE_CLASSES = frozenset((ALU, MUL, DIV, LOAD, STORE, CLOAD, CSTORE, CAP))

#: Mnemonics excluded even though their timing class is fusable:
#: ``auipcc`` reads the live PC outside a fault path, and ``cspecialrw``
#: reaches into the trap plumbing (``mtcc``/``mepcc``) mid-run.
_FUSABLE_EXCLUDED = frozenset(("auipcc", "cspecialrw"))

#: The fusable mnemonic set, derived from the instruction table so a
#: new mnemonic is never silently fused by accident.
FUSABLE_MNEMONICS = frozenset(
    name
    for name, spec in INSTRUCTION_SPECS.items()
    if spec.timing_class in _FUSABLE_CLASSES and name not in _FUSABLE_EXCLUDED
)

#: Cap on straight-line run length; long unrolled runs split into
#: chained blocks rather than translating unboundedly.
MAX_BLOCK_INSTRUCTIONS = 128


@dataclass(slots=True)
class BlockCacheStats:
    """Translation-cache observability counters (host-side only)."""

    #: Blocks translated (including re-translations for a swapped
    #: timing model).
    translations: int = 0
    #: Fused block dispatches executed to completion or fault.
    executions: int = 0
    #: Instructions retired through fused dispatches (incl. terminators).
    instructions: int = 0
    #: Steps the block run loop routed through the ordinary single-step
    #: path (non-fusable start, window miss, or exhausted step budget).
    single_steps: int = 0

    def reset(self) -> None:
        # Field-derived so a new counter can never miss the reset.
        for f in fields(self):
            setattr(self, f.name, 0)


class Block:
    """One translated superblock.

    ``entries`` drive the fused straight-line dispatch; ``pairs`` are
    the matching ``(instr, info)`` retire stream (for the pre-classified
    cost vector and for single-step replay after a mid-block fault);
    ``term`` is the optional terminator executed with full
    per-instruction semantics.

    A block stays valid for as long as its program is loaded: it is
    translated from the pre-decoded table, which no store can change.
    Only a swapped timing model (``timing``) re-translates it.
    """

    __slots__ = (
        "last_pc",
        "length",
        "steps",
        "entries",
        "pairs",
        "term",
        "term_bails",
        "charge",
        "timing",
    )

    def __init__(
        self,
        last_pc: int,
        entries: Tuple[tuple, ...],
        pairs: Tuple[tuple, ...],
        term: Optional[tuple],
        term_bails: bool,
        charge,
        timing,
    ) -> None:
        #: PC of the last covered instruction: the whole block fetches
        #: legally iff its first PC and ``last_pc`` sit in the window.
        self.last_pc = last_pc
        self.length = len(entries)
        #: Step-budget debit of a full execution (straight line plus
        #: terminator, matching what single-stepping would consume).
        self.steps = self.length + (1 if term is not None else 0)
        self.entries = entries
        self.pairs = pairs
        self.term = term
        #: True when the terminator can run arbitrary host Python (an
        #: ``ecall`` into the CPU's ``ecall_handler``) that may install
        #: hooks, swap the timing model or reload the program — the
        #: executor's chained dispatch returns to the run loop after
        #: such a block so the eligibility check re-runs immediately.
        self.term_bails = term_bails
        #: Pre-classified cost vector for ``timing`` (None when the CPU
        #: has no timing model attached at translation time).
        self.charge = charge
        #: The timing model the charge was classified for; the executor
        #: re-translates if the CPU's model is swapped out.
        self.timing = timing


def translate_block(cpu, index: int) -> Optional[Block]:
    """Translate the straight-line run starting at ``index``, or return
    ``None`` when the instruction there is not fusable.

    Builds the retire infos at translation time so the cost vector can
    be pre-classified and fused execution never allocates per
    instruction.
    """
    from .executor import _RetireInfo  # circular at import time only

    decoded = cpu._decoded
    code_base = cpu.code_base
    i = index
    limit = min(len(decoded), index + MAX_BLOCK_INSTRUCTIONS)
    entries: List[tuple] = []
    pairs: List[tuple] = []
    while i < limit:
        step, instr = decoded[i]
        if instr.mnemonic not in FUSABLE_MNEMONICS:
            break
        pc = code_base + 4 * i
        entries.append((step, pc))
        pairs.append((instr, _RetireInfo(pc)))
        i += 1
    if i == index:
        return None
    term = None
    term_bails = False
    last_pc = code_base + 4 * (i - 1)
    if i < len(decoded):
        step, instr = decoded[i]
        term_pc = code_base + 4 * i
        term = (step, instr, _RetireInfo(term_pc), term_pc)
        term_bails = instr.mnemonic == "ecall"
        last_pc = term_pc
    timing = cpu.timing
    charge = timing.precompute_block(pairs) if timing is not None else None
    # Pre-flush amounts: cycles the executor streams into the timing
    # stats *before* each memory operation, so host code reachable from
    # inside the block (MMIO device reads, store snoopers) observes the
    # exact cycle count single-stepping would have shown it.  ALU-only
    # blocks keep all-zero pre-flushes and charge once at the end.
    pres = [0] * len(pairs)
    if charge is not None:
        prefix = charge.prefix_cycles
        streamed = 0
        for k in range(1, len(pairs)):
            cls = pairs[k][0].timing_class
            if cls is LOAD or cls is STORE or cls is CLOAD or cls is CSTORE:
                pres[k] = prefix[k - 1] - streamed
                streamed += pres[k]
    return Block(
        last_pc=last_pc,
        entries=tuple(
            (step, pc, pre) for (step, pc), pre in zip(entries, pres)
        ),
        pairs=tuple(pairs),
        term=term,
        term_bails=term_bails,
        charge=charge,
        timing=timing,
    )

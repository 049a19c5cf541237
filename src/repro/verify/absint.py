"""Abstract interpretation of guest code over the capability lattice.

The verifier runs each compartment span of an image to a worklist
fixpoint over :class:`~repro.verify.domain.AbstractCap` register states
and proves (or reports it cannot prove) the paper's statically-auditable
properties:

* **monotonicity** — no instruction sequence widens a capability: every
  ``csetbounds`` site either provably narrows within the incoming
  abstract bounds or is reported (a *guaranteed* widening attempt is a
  violation, an unprovable one an obligation discharged by the runtime
  trap);
* **sentry discipline** — sealed capabilities are only invoked through
  legal sentry forms: every ``jalr``/``ret`` site's abstract target must
  be unsealed-executable or a sentry of the right direction;
* **stack confinement** — stack-provenance capabilities never escape to
  globals: a capability store is an escape hazard only when the
  authority may carry SL outside the stack and trusted-stack regions,
  otherwise the store-local rule is a proven runtime guard;
* **compartment isolation** — control only leaves a compartment span
  through sealed entries: direct jumps across spans and unsealed
  indirect targets outside the span are findings.

Soundness boundary: the abstract memory is a per-region *summary* (one
joined value per provenance label, slot-refined for regions declared
16-aligned), integer arithmetic beyond add/sub of intervals goes
straight to top, and branch conditions are not refined.  The verifier
therefore over-approximates: every reported *violation* is a genuine
property of all concretisations it can see, while *obligations* mark
sites whose safety rests on the runtime guards the dynamic fault
campaign exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.capability import Permission
from repro.capability import bounds as bounds_mod
from repro.capability.bounds import BoundsError
from repro.capability.otypes import (
    FORWARD_SENTRY_OTYPES,
    OTYPE_UNSEALED,
    RETURN_SENTRY_OTYPES,
    SentryType,
)
from repro.isa.assembler import Program
from repro.isa.instructions import INSTRUCTION_SPECS

from .cfg import ControlFlowGraph, build_cfg
from .domain import (
    AbstractCap,
    Interval,
    Tri,
    interval_add,
    interval_const,
    interval_join,
)

VIOLATION = "violation"
OBLIGATION = "obligation"

#: Block revisits before the widening operator kicks in.
_WIDEN_AFTER = 3
#: Outer passes (memory/SCR/CSR summary stabilisation) before forcing
#: every summary to top and doing one final pass.
_MAX_PASSES = 8

_PROTECTED_CSRS = frozenset(("mshwm", "mshwmb", "mstatus_mie"))

_P = Permission


# ----------------------------------------------------------------------
# Image specification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompartmentSpan:
    """One compartment's contiguous slice of an image.

    ``entry_regs`` give the abstract register file at every declared
    entry (indices into the 16-register file); unlisted registers enter
    as NULL integers, matching the loader/switcher register-clearing
    discipline.  ``pcc_has_sr`` mirrors whether the span's code runs
    with the SR permission (access to SCRs and protected CSRs).
    """

    name: str
    span: Tuple[int, int]
    entries: Tuple[int, ...]
    entry_regs: Dict[int, AbstractCap] = field(default_factory=dict)
    entry_scrs: Dict[str, AbstractCap] = field(default_factory=dict)
    entry_csrs: Dict[str, Interval] = field(default_factory=dict)
    pcc_has_sr: bool = False
    pcc_bounds: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class ImageSpec:
    """A verifiable image: program, compartment spans, initial memory."""

    name: str
    program: Program
    code_base: int
    compartments: Tuple[CompartmentSpan, ...]
    #: Initial capability-memory summaries, keyed by region label (or
    #: ``label#slot`` for slotted regions).
    memory: Dict[str, AbstractCap] = field(default_factory=dict)
    #: Region labels whose capability slots are 16-aligned: summaries
    #: are refined per ``offset & 15`` class (the trusted-stack /
    #: export-table layout guarantee).
    slotted: FrozenSet[str] = frozenset()
    #: Whether loads go through the revocation load filter (loaded tags
    #: can be stripped at runtime).
    load_filter: bool = False
    #: Whether the image runs with strict CFI (sentry direction misuse
    #: traps, so a must-mismatch is a violation rather than an audit
    #: obligation).
    cfi_strict: bool = False


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One property report, anchored to an instruction site."""

    category: str
    severity: str
    compartment: str
    index: int
    pc: int
    mnemonic: str
    message: str

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "severity": self.severity,
            "compartment": self.compartment,
            "index": self.index,
            "pc": self.pc,
            "mnemonic": self.mnemonic,
            "message": self.message,
        }


class _FindingSink:
    """Deduplicates findings per (site, category), violations winning."""

    def __init__(self) -> None:
        self._items: Dict[Tuple[int, str], Finding] = {}
        self.proven: Dict[str, int] = {}

    def add(self, finding: Finding) -> None:
        key = (finding.index, finding.category)
        prior = self._items.get(key)
        if prior is None or (
            prior.severity == OBLIGATION and finding.severity == VIOLATION
        ):
            self._items[key] = finding

    def prove(self, what: str) -> None:
        self.proven[what] = self.proven.get(what, 0) + 1

    @property
    def findings(self) -> List[Finding]:
        return sorted(
            self._items.values(), key=lambda f: (f.index, f.category)
        )


@dataclass
class VerifyResult:
    """The verifier's verdict over one image."""

    image: str
    findings: List[Finding]
    blocks: int
    edges: int
    instructions: int
    passes: int
    proven: Dict[str, int]

    @property
    def violations(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == VIOLATION]

    @property
    def obligations(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == OBLIGATION]

    def to_dict(self) -> dict:
        obligations: Dict[str, int] = {}
        for f in self.obligations:
            obligations[f.category] = obligations.get(f.category, 0) + 1
        return {
            "image": self.image,
            "instructions": self.instructions,
            "blocks": self.blocks,
            "edges": self.edges,
            "passes": self.passes,
            "violations": [f.to_dict() for f in self.violations],
            "obligations": {k: obligations[k] for k in sorted(obligations)},
            "proven": {k: self.proven[k] for k in sorted(self.proven)},
        }


# ----------------------------------------------------------------------
# Abstract machine state
# ----------------------------------------------------------------------

_NULL_INT = AbstractCap.const(0)


class AbstractState:
    """The 16-register abstract file (x0 pinned to NULL)."""

    __slots__ = ("regs",)

    def __init__(self, regs: Optional[List[AbstractCap]] = None) -> None:
        self.regs = regs if regs is not None else [_NULL_INT] * 16

    def copy(self) -> "AbstractState":
        return AbstractState(list(self.regs))

    def read(self, index: int) -> AbstractCap:
        if index == 0:
            return _NULL_INT
        return self.regs[index]

    def write(self, index: int, value: AbstractCap) -> None:
        if index != 0:
            self.regs[index] = value

    def join(self, other: "AbstractState") -> Tuple["AbstractState", bool]:
        changed = False
        regs: List[AbstractCap] = []
        for mine, theirs in zip(self.regs, other.regs):
            joined = mine.join(theirs)
            changed = changed or joined != mine
            regs.append(joined)
        return AbstractState(regs), changed

    def widen_against(self, older: "AbstractState") -> "AbstractState":
        return AbstractState(
            [n.widened_against(o) for n, o in zip(self.regs, older.regs)]
        )


def _havoc_state() -> AbstractState:
    return AbstractState([AbstractCap.unknown()] * 16)


# ----------------------------------------------------------------------
# The verifier
# ----------------------------------------------------------------------


class Verifier:
    """Runs every compartment span of an image to fixpoint."""

    def __init__(self, image: ImageSpec) -> None:
        self.image = image
        self.memory: Dict[str, AbstractCap] = dict(image.memory)
        self.scrs: Dict[str, AbstractCap] = {}
        self.csrs: Dict[str, Interval] = {}
        self.summaries_changed = False
        self.sink = _FindingSink()
        self._cfgs: Dict[str, ControlFlowGraph] = {}
        self._span: Optional[CompartmentSpan] = None

    # -- summary plumbing ------------------------------------------------

    def _mem_keys(self, authority: AbstractCap, offset: int) -> List[str]:
        keys = []
        for label in sorted(authority.prov):
            if label in self.image.slotted:
                keys.append(f"{label}#{offset & 15}")
            else:
                keys.append(label)
        return keys

    def _mem_load(self, authority: AbstractCap, offset: int) -> AbstractCap:
        if "unknown" in authority.prov:
            return AbstractCap.unknown()
        value: Optional[AbstractCap] = None
        for key in self._mem_keys(authority, offset):
            cell = self.memory.get(key, AbstractCap.integer())
            value = cell if value is None else value.join(cell)
        return value if value is not None else AbstractCap.integer()

    def _mem_store(
        self, authority: AbstractCap, offset: int, value: AbstractCap
    ) -> None:
        for key in self._mem_keys(authority, offset):
            prior = self.memory.get(key)
            joined = value if prior is None else prior.join(value)
            if joined != prior:
                self.memory[key] = joined
                self.summaries_changed = True

    def _scr_read(self, name: str) -> AbstractCap:
        value = self.scrs.get(name)
        span_value = (
            self._span.entry_scrs.get(name) if self._span is not None else None
        )
        if value is None:
            return span_value if span_value is not None else AbstractCap.unknown()
        return value.join(span_value) if span_value is not None else value

    def _scr_write(self, name: str, value: AbstractCap) -> None:
        prior = self.scrs.get(name)
        joined = value if prior is None else prior.join(value)
        if joined != prior:
            self.scrs[name] = joined
            self.summaries_changed = True

    def _csr_read(self, name: str) -> Interval:
        entry = (
            self._span.entry_csrs.get(name) if self._span is not None else None
        )
        if name not in self.csrs:
            return entry
        stored = self.csrs[name]
        if stored is None or entry is None:
            return None
        return interval_join(stored, entry)

    def _csr_write(self, name: str, value: Interval) -> None:
        prior = self.csrs.get(name, "absent")
        joined = value if prior == "absent" else interval_join(prior, value)
        if joined != prior:
            self.csrs[name] = joined
            self.summaries_changed = True

    # -- findings --------------------------------------------------------

    def _report(
        self, severity: str, category: str, index: int, message: str
    ) -> None:
        span = self._span
        instr = self.image.program.instructions[index]
        self.sink.add(
            Finding(
                category=category,
                severity=severity,
                compartment=span.name if span is not None else "?",
                index=index,
                pc=self.image.code_base + 4 * index,
                mnemonic=instr.mnemonic,
                message=message,
            )
        )

    # -- top level -------------------------------------------------------

    def run(self) -> VerifyResult:
        passes = 0
        while True:
            passes += 1
            self.sink = _FindingSink()
            self.summaries_changed = False
            for span in self.image.compartments:
                self._run_span(span)
            if not self.summaries_changed:
                break
            if passes >= _MAX_PASSES:
                # Force every summary to top and take one final pass.
                top = AbstractCap.unknown()
                self.memory = {k: top for k in self.memory}
                self.scrs = {k: top for k in self.scrs}
                self.csrs = {k: None for k in self.csrs}
                self.sink = _FindingSink()
                self.summaries_changed = False
                for span in self.image.compartments:
                    self._run_span(span)
                passes += 1
                break

        blocks = sum(len(c.blocks) for c in self._cfgs.values())
        edges = sum(c.edge_count for c in self._cfgs.values())
        instructions = sum(
            s.span[1] - s.span[0] for s in self.image.compartments
        )
        return VerifyResult(
            image=self.image.name,
            findings=self.sink.findings,
            blocks=blocks,
            edges=edges,
            instructions=instructions,
            passes=passes,
            proven=dict(self.sink.proven),
        )

    # -- per-span fixpoint ----------------------------------------------

    def _entry_state(self, span: CompartmentSpan) -> AbstractState:
        state = AbstractState()
        for index, value in span.entry_regs.items():
            state.write(index, value)
        return state

    def _run_span(self, span: CompartmentSpan) -> None:
        self._span = span
        cfg = self._cfgs.get(span.name)
        if cfg is None or (cfg.span_start, cfg.span_end) != span.span:
            cfg = build_cfg(self.image.program, span.span, span.entries)
            self._cfgs[span.name] = cfg

        # Direct control transfers leaving the span are isolation
        # violations by construction: legal cross-compartment flow is
        # through sealed entries (indirect, via the switcher).
        for source, target in cfg.cross_edges:
            self._report(
                VIOLATION,
                "cross-compartment",
                source,
                f"direct jump to index {target} leaves compartment "
                f"{span.name!r} without a sealed entry",
            )

        in_states: Dict[int, AbstractState] = {}
        visits: Dict[int, int] = {}
        entry_state = self._entry_state(span)
        work: List[int] = []
        for entry in cfg.entries:
            if entry in cfg.blocks:
                in_states[entry] = entry_state.copy()
                work.append(entry)

        while work:
            start = work.pop()
            block = cfg.blocks.get(start)
            if block is None:
                continue
            state = in_states[start].copy()
            for index in range(block.start, block.end):
                state = self._transfer(index, state)
            last = self.image.program.instructions[block.end - 1]
            is_call = (
                last.mnemonic in ("jal", "jalr")
                and last.operands
                and last.operands[0] != 0
            )
            for succ in block.successors:
                out = state
                if is_call and succ == block.end:
                    # Call-return edge: the callee may clobber anything.
                    out = _havoc_state()
                prior = in_states.get(succ)
                if prior is None:
                    in_states[succ] = out.copy()
                    work.append(succ)
                    continue
                joined, changed = prior.join(out)
                if not changed:
                    continue
                visits[succ] = visits.get(succ, 0) + 1
                if visits[succ] > _WIDEN_AFTER:
                    joined = joined.widen_against(prior)
                in_states[succ] = joined
                work.append(succ)
        self._span = None

    # -- transfer function ----------------------------------------------

    def _transfer(self, index: int, state: AbstractState) -> AbstractState:
        instr = self.image.program.instructions[index]
        mnemonic = instr.mnemonic
        spec = INSTRUCTION_SPECS.get(mnemonic)
        if spec is None:
            self._report(
                VIOLATION, "decode", index, f"unknown mnemonic {mnemonic!r}"
            )
            return _havoc_state()
        ops = instr.operands
        handler = _TRANSFER.get(mnemonic)
        if handler is not None:
            handler(self, index, ops, state)
            return state
        timing = spec.timing_class
        if timing in ("ALU", "MUL", "DIV"):
            # Generic integer op: rd (if any) becomes an unknown integer.
            if spec.kinds and spec.kinds[0] == "rd":
                state.write(ops[0], AbstractCap.integer())
        elif timing == "LOAD":
            self._data_access(index, ops[1], state, size=4, store=False)
            state.write(ops[0], AbstractCap.integer())
        elif timing == "STORE":
            self._data_access(index, ops[1], state, size=4, store=True)
        elif spec.kinds and spec.kinds[0] == "rd":
            # Unmodelled destination-writing form: sound fallback.
            state.write(ops[0], AbstractCap.unknown())
        # BRANCH / SYSTEM / remaining CSR forms change no register state.
        return state

    # -- access checks ---------------------------------------------------

    def _data_access(
        self,
        index: int,
        mem,
        state: AbstractState,
        size: int,
        store: bool,
        cap_width: bool = False,
    ) -> AbstractCap:
        offset, reg = mem
        authority = state.read(reg)
        if authority.tag is Tri.NO:
            self._report(
                VIOLATION,
                "untagged-deref",
                index,
                "memory access through a definitely-untagged capability",
            )
        elif authority.tag is Tri.MAYBE:
            self._report(
                OBLIGATION,
                "untagged-deref",
                index,
                "cannot prove the authority is tagged",
            )
        if authority.must_be_sealed:
            self._report(
                VIOLATION,
                "sealed-deref",
                index,
                "memory access through a sealed capability",
            )
        elif authority.may_be_sealed:
            self._report(
                OBLIGATION,
                "sealed-deref",
                index,
                "cannot prove the authority is unsealed",
            )
        needed = [_P.SD] if store else [_P.LD]
        if cap_width:
            needed.append(_P.MC)
        for perm in needed:
            if not authority.may_have(perm):
                self._report(
                    VIOLATION,
                    "perm",
                    index,
                    f"authority definitely lacks {perm.name}",
                )
            elif not authority.must_have(perm):
                self._report(
                    OBLIGATION,
                    "perm",
                    index,
                    f"cannot prove the authority holds {perm.name}",
                )
        access = interval_add(authority.addr, offset, offset)
        if authority.bounds is not None and access is not None:
            base, top = authority.bounds
            lo, hi = access
            if hi + size <= base or lo >= top:
                self._report(
                    VIOLATION,
                    "bounds",
                    index,
                    f"access at +{offset} definitely outside "
                    f"[{base:#x}, {top:#x})",
                )
            elif base <= lo and hi + size <= top:
                self.sink.prove("bounds")
            else:
                self._report(
                    OBLIGATION,
                    "bounds",
                    index,
                    "cannot prove the access stays within bounds",
                )
        else:
            self._report(
                OBLIGATION,
                "bounds",
                index,
                "authority bounds or address unknown at this site",
            )
        return authority

    def _require_manipulable(
        self, index: int, value: AbstractCap, what: str
    ) -> None:
        """Guarded-manipulation precondition: tagged and unsealed."""
        if value.tag is Tri.NO:
            self._report(
                VIOLATION,
                "tag-manip",
                index,
                f"{what} of a definitely-untagged capability",
            )
        if value.must_be_sealed:
            self._report(
                VIOLATION,
                "sealed-manip",
                index,
                f"{what} of a definitely-sealed capability",
            )
        elif value.may_be_sealed:
            self._report(
                OBLIGATION,
                "sealed-manip",
                index,
                f"cannot prove the {what} source is unsealed",
            )


# ----------------------------------------------------------------------
# Mnemonic-level transfer handlers
# ----------------------------------------------------------------------


def _int_binop(fn):
    def handler(v: Verifier, index, ops, state: AbstractState) -> None:
        rd, rs, rt = ops
        a, b = state.read(rs).addr, state.read(rt).addr
        state.write(rd, AbstractCap.integer(fn(a, b)))

    return handler


def _iv_add(a: Interval, b: Interval) -> Interval:
    if a is None or b is None:
        return None
    return interval_add(a, b[0], b[1])


def _iv_sub(a: Interval, b: Interval) -> Interval:
    if a is None or b is None:
        return None
    lo, hi = a[0] - b[1], a[1] - b[0]
    if lo < 0:
        return None  # may wrap modulo 2**32
    return (lo, hi)


def _t_li(v, index, ops, state):
    state.write(ops[0], AbstractCap.const(ops[1] & 0xFFFFFFFF))


def _t_lui(v, index, ops, state):
    state.write(ops[0], AbstractCap.const((ops[1] << 12) & 0xFFFFFFFF))


def _t_mv(v, index, ops, state):
    state.write(ops[0], state.read(ops[1]))


def _t_addi(v, index, ops, state):
    rd, rs, imm = ops
    src = state.read(rs).addr
    state.write(rd, AbstractCap.integer(interval_add(src, imm, imm)))


def _t_cmove(v, index, ops, state):
    state.write(ops[0], state.read(ops[1]))


def _t_cgetaddr(v, index, ops, state):
    state.write(ops[0], AbstractCap.integer(state.read(ops[1]).addr))


def _t_cgetbase(v, index, ops, state):
    bounds = state.read(ops[1]).bounds
    value = interval_const(bounds[0]) if bounds is not None else None
    state.write(ops[0], AbstractCap.integer(value))


def _t_cgettop(v, index, ops, state):
    bounds = state.read(ops[1]).bounds
    value = interval_const(bounds[1]) if bounds is not None else None
    state.write(ops[0], AbstractCap.integer(value))


def _t_cgetlen(v, index, ops, state):
    bounds = state.read(ops[1]).bounds
    value = (
        interval_const(max(0, bounds[1] - bounds[0]))
        if bounds is not None
        else None
    )
    state.write(ops[0], AbstractCap.integer(value))


def _t_cgettag(v, index, ops, state):
    tag = state.read(ops[1]).tag
    value = {Tri.YES: (1, 1), Tri.NO: (0, 0), Tri.MAYBE: (0, 1)}[tag]
    state.write(ops[0], AbstractCap.integer(value))


def _t_cgetint(v, index, ops, state):
    state.write(ops[0], AbstractCap.integer())


def _set_address(
    v: Verifier, index: int, src: AbstractCap, new_addr: Interval
) -> AbstractCap:
    """Abstract ``csetaddr``/``cincaddr``: may untag, never widens."""
    tag = src.tag
    if tag.may:
        if src.may_be_sealed:
            # Address moves on sealed capabilities clear the tag.
            tag = Tri.NO if src.must_be_sealed else Tri.MAYBE
        elif (
            src.bounds is not None
            and new_addr is not None
            and src.bounds[0] <= new_addr[0]
            and new_addr[1] < src.bounds[1]
        ):
            pass  # in-bounds addresses are always representable
        else:
            tag = Tri.MAYBE
    return replace(src, addr=new_addr, tag=tag)


def _t_csetaddr(v, index, ops, state):
    rd, rs, rt = ops
    state.write(
        rd, _set_address(v, index, state.read(rs), state.read(rt).addr)
    )


def _t_cincaddr(v, index, ops, state):
    rd, rs, rt = ops
    src = state.read(rs)
    state.write(
        rd, _set_address(v, index, src, _iv_add(src.addr, state.read(rt).addr))
    )


def _t_cincaddrimm(v, index, ops, state):
    rd, rs, imm = ops
    src = state.read(rs)
    state.write(
        rd, _set_address(v, index, src, interval_add(src.addr, imm, imm))
    )


def _csetbounds_common(
    v: Verifier, index, state: AbstractState, rd, rs, length: Interval
) -> None:
    src = state.read(rs)
    v._require_manipulable(index, src, "csetbounds")
    addr = src.addr
    result_bounds: Optional[Tuple[int, int]] = None
    if src.bounds is not None and addr is not None and length is not None:
        base, top = src.bounds
        lo, hi = addr
        if lo + length[0] > top or hi < base or lo > top:
            v._report(
                VIOLATION,
                "monotonicity",
                index,
                f"requested region [{lo:#x}, +{length[0]:#x}) can never "
                f"fit inside [{base:#x}, {top:#x}) — guaranteed widening "
                "attempt (traps at runtime)",
            )
        elif base <= lo and hi + length[1] <= top:
            v.sink.prove("monotonicity")
            if lo == hi and length[0] == length[1]:
                try:
                    _, new_base, new_top = bounds_mod.encode(lo, length[0])
                    result_bounds = (new_base, new_top)
                except BoundsError:
                    result_bounds = None
        else:
            v._report(
                OBLIGATION,
                "monotonicity",
                index,
                "cannot prove the requested bounds stay within the source",
            )
    else:
        v._report(
            OBLIGATION,
            "monotonicity",
            index,
            "source bounds, address or length unknown at this site",
        )
    state.write(
        rd,
        replace(
            src,
            bounds=result_bounds,
            addr=addr,
        ),
    )


def _t_csetbounds(v, index, ops, state):
    rd, rs, rt = ops
    _csetbounds_common(v, index, state, rd, rs, state.read(rt).addr)


def _t_csetboundsimm(v, index, ops, state):
    rd, rs, imm = ops
    _csetbounds_common(v, index, state, rd, rs, (imm, imm))


def _t_candperm(v, index, ops, state):
    rd, rs, rt = ops
    src = state.read(rs)
    v._require_manipulable(index, src, "candperm")
    v.sink.prove("monotonicity")  # candperm can only shed permissions
    state.write(
        rd, replace(src, perms_must=frozenset(), perms_may=src.perms_may)
    )


def _t_ccleartag(v, index, ops, state):
    rd, rs = ops
    state.write(rd, state.read(rs).untag())


def _t_cseal(v, index, ops, state):
    rd, rs, rt = ops
    src = state.read(rs)
    authority = state.read(rt)
    v._require_manipulable(index, src, "cseal")
    if not authority.may_have(_P.SE):
        v._report(
            VIOLATION,
            "seal-authority",
            index,
            "sealing authority definitely lacks SE",
        )
    elif not authority.must_have(_P.SE):
        v._report(
            OBLIGATION,
            "seal-authority",
            index,
            "cannot prove the sealing authority holds SE",
        )
    else:
        v.sink.prove("seal-authority")
    addr = authority.addr
    if addr is not None and addr[0] == addr[1] and 1 <= addr[0] <= 7:
        otypes = frozenset({addr[0]})
    else:
        otypes = frozenset(range(1, 8))
    state.write(rd, replace(src, otypes=otypes))


def _t_cunseal(v, index, ops, state):
    rd, rs, rt = ops
    src = state.read(rs)
    authority = state.read(rt)
    if src.must_be_unsealed:
        v._report(
            VIOLATION,
            "unseal",
            index,
            "cunseal of a definitely-unsealed capability",
        )
    if not authority.may_have(_P.US):
        v._report(
            VIOLATION,
            "seal-authority",
            index,
            "unseal authority definitely lacks US",
        )
    elif not authority.must_have(_P.US):
        v._report(
            OBLIGATION,
            "seal-authority",
            index,
            "cannot prove the unseal authority holds US",
        )
    addr = authority.addr
    sealed = src.sealed_otypes()
    if addr is not None and addr[0] == addr[1] and sealed:
        if addr[0] not in sealed and src.must_be_sealed:
            v._report(
                VIOLATION,
                "unseal",
                index,
                f"authority names otype {addr[0]}, capability can only "
                f"be sealed with {sorted(sealed)}",
            )
        elif sealed == frozenset({addr[0]}):
            v.sink.prove("unseal")
    state.write(
        rd, replace(src, otypes=frozenset({OTYPE_UNSEALED}))
    )


def _t_csealentry(v, index, ops, state):
    rd, rs, name = ops
    src = state.read(rs)
    v._require_manipulable(index, src, "csealentry")
    if not src.may_have(_P.EX):
        v._report(
            VIOLATION,
            "sentry-mint",
            index,
            "sentry minted from a definitely-non-executable capability",
        )
    sentry = _SENTRY_BY_NAME.get(str(name).lower())
    otypes = (
        frozenset({int(sentry)})
        if sentry is not None
        else frozenset(int(s) for s in SentryType)
    )
    state.write(rd, replace(src, otypes=otypes))


_SENTRY_BY_NAME = {
    "inherit": SentryType.INHERIT,
    "disable": SentryType.DISABLE_INTERRUPTS,
    "enable": SentryType.ENABLE_INTERRUPTS,
    "ret_dis": SentryType.RETURN_DISABLED,
    "ret_en": SentryType.RETURN_ENABLED,
}


def _t_cspecialrw(v, index, ops, state):
    rd, scr, rs = ops
    span = v._span
    if span is not None and not span.pcc_has_sr:
        v._report(
            VIOLATION,
            "scr-access",
            index,
            f"cspecialrw {scr} in a compartment whose PCC lacks SR",
        )
    else:
        v.sink.prove("scr-access")
    old = v._scr_read(str(scr))
    if rs != 0:
        v._scr_write(str(scr), state.read(rs))
    state.write(rd, old)


def _t_auipcc(v, index, ops, state):
    rd, _imm = ops
    span = v._span
    perms = (
        _code_perms(span.pcc_has_sr) if span is not None else frozenset()
    )
    state.write(
        rd,
        AbstractCap(
            tag=Tri.YES,
            otypes=frozenset({OTYPE_UNSEALED}),
            perms_must=perms,
            perms_may=perms,
            bounds=span.pcc_bounds if span is not None else None,
            addr=None,
            prov=frozenset({"code"}),
        ),
    )


def _code_perms(has_sr: bool) -> FrozenSet[Permission]:
    perms = {_P.GL, _P.EX, _P.LD, _P.MC, _P.LM, _P.LG}
    if has_sr:
        perms.add(_P.SR)
    return frozenset(perms)


def _link_value(v: Verifier, index: int) -> AbstractCap:
    """The return sentry written by jump-and-link."""
    span = v._span
    return AbstractCap(
        tag=Tri.YES,
        otypes=frozenset(int(s) for s in RETURN_SENTRY_OTYPES),
        perms_must=_code_perms(span.pcc_has_sr if span else False),
        perms_may=_code_perms(span.pcc_has_sr if span else False),
        bounds=span.pcc_bounds if span is not None else None,
        addr=interval_const(v.image.code_base + 4 * (index + 1)),
        prov=frozenset({"code"}),
    )


def _check_jump_target(
    v: Verifier, index: int, target: AbstractCap, rd: int
) -> None:
    """The sentry-discipline property at one indirect jump site."""
    if target.tag is Tri.NO:
        v._report(
            VIOLATION,
            "untagged-jump",
            index,
            "indirect jump through a definitely-untagged capability",
        )
        return
    if target.tag is Tri.MAYBE:
        v._report(
            OBLIGATION,
            "untagged-jump",
            index,
            "cannot prove the jump target is tagged",
        )

    sealed = target.sealed_otypes()
    sentries = FORWARD_SENTRY_OTYPES | RETURN_SENTRY_OTYPES
    if sealed:
        non_sentry = bool(sealed - sentries) or not target.may_have(_P.EX)
        if non_sentry:
            severity = (
                VIOLATION
                if target.must_be_sealed
                and (not (sealed & sentries) or not target.may_have(_P.EX))
                else OBLIGATION
            )
            v._report(
                severity,
                "sentry",
                index,
                "jump may consume a sealed non-sentry capability",
            )
        else:
            # Direction discipline: calls consume forward sentries,
            # returns consume return sentries.
            wanted = FORWARD_SENTRY_OTYPES if rd != 0 else RETURN_SENTRY_OTYPES
            wrong = sealed - frozenset(int(s) for s in wanted)
            if wrong:
                must_wrong = target.must_be_sealed and not (
                    sealed & frozenset(int(s) for s in wanted)
                )
                severity = (
                    VIOLATION if (must_wrong and v.image.cfi_strict) else OBLIGATION
                )
                v._report(
                    severity,
                    "sentry",
                    index,
                    (
                        "return consumes a forward sentry"
                        if rd == 0
                        else "call consumes a return sentry"
                    ),
                )
            else:
                v.sink.prove("sentry")
    if not target.may_have(_P.EX):
        v._report(
            VIOLATION,
            "noexec-jump",
            index,
            "jump target definitely lacks EX",
        )
    elif not target.must_have(_P.EX):
        v._report(
            OBLIGATION,
            "noexec-jump",
            index,
            "cannot prove the jump target is executable",
        )

    # Compartment isolation: an unsealed target leaving the span.
    span = v._span
    if span is not None and target.must_be_unsealed and target.tag.may:
        lo = v.image.code_base + 4 * span.span[0]
        hi = v.image.code_base + 4 * span.span[1]
        if target.addr_definitely_outside(lo, hi):
            v._report(
                VIOLATION,
                "cross-compartment",
                index,
                "unsealed jump target lies outside the compartment",
            )
        elif target.addr_definitely_inside(lo, hi):
            v.sink.prove("cross-compartment")
    elif target.must_be_sealed:
        v.sink.prove("cross-compartment")


def _t_jalr(v, index, ops, state):
    rd, rs = ops
    _check_jump_target(v, index, state.read(rs), rd)
    if rd != 0:
        state.write(rd, _link_value(v, index))


def _t_ret(v, index, ops, state):
    _check_jump_target(v, index, state.read(1), 0)


def _t_jal(v, index, ops, state):
    rd, _target = ops
    if rd != 0:
        state.write(rd, _link_value(v, index))


def _t_clc(v, index, ops, state):
    rd, mem = ops
    authority = v._data_access(index, mem, state, size=8, store=False, cap_width=True)
    loaded = v._mem_load(authority, mem[0])
    # Recursive load attenuation (paper §3.1.1).
    must, may = loaded.perms_must, loaded.perms_may
    if not authority.must_have(_P.LG):
        must = must - {_P.GL, _P.LG}
    if not authority.may_have(_P.LG):
        may = may - {_P.GL, _P.LG}
    if not loaded.must_have(_P.EX):
        if not authority.must_have(_P.LM):
            must = must - {_P.LM, _P.SD, _P.SL}
        if not authority.may_have(_P.LM):
            may = may - {_P.LM, _P.SD, _P.SL}
    tag = loaded.tag
    if v.image.load_filter and tag.may:
        tag = Tri.MAYBE  # revocation may strip the tag at any load
    state.write(
        rd, replace(loaded, perms_must=must, perms_may=may, tag=tag)
    )


def _t_csc(v, index, ops, state):
    rs, mem = ops
    authority = v._data_access(index, mem, state, size=8, store=True, cap_width=True)
    value = state.read(rs)

    if value.may_be_tagged and value.may_be_local:
        if not authority.may_have(_P.SL):
            if value.must_be_tagged and value.must_be_local:
                # The SL rule will trap this store at runtime: report it
                # as the architectural violation it is.
                v._report(
                    VIOLATION,
                    "store-local",
                    index,
                    "store of a local capability through an authority "
                    "with no SL (traps at runtime)",
                )
            else:
                v.sink.prove("store-local")
        else:
            # SL present: the store succeeds.  It is an escape hazard
            # only when a stack-provenance value lands outside the
            # stack / trusted-stack regions.
            outside = {
                label
                for label in authority.prov
                if label not in ("stack", "trusted-stack")
            }
            if "stack" in value.prov and outside:
                severity = (
                    VIOLATION
                    if value.must_be_tagged and authority.must_have(_P.SL)
                    else OBLIGATION
                )
                v._report(
                    severity,
                    "stack-escape",
                    index,
                    f"stack-derived capability stored via SL authority "
                    f"into {sorted(outside)}",
                )
            else:
                v.sink.prove("stack-escape")
    else:
        v.sink.prove("store-local")
    v._mem_store(authority, mem[0], value)


def _t_csrr(v, index, ops, state):
    rd, name = ops
    _check_protected_csr(v, index, name)
    state.write(rd, AbstractCap.integer(v._csr_read(str(name))))


def _t_csrw(v, index, ops, state):
    name, rs = ops
    _check_protected_csr(v, index, name)
    v._csr_write(str(name), state.read(rs).addr)


def _t_csrrw(v, index, ops, state):
    rd, name, rs = ops
    _check_protected_csr(v, index, name)
    old = v._csr_read(str(name))
    v._csr_write(str(name), state.read(rs).addr)
    state.write(rd, AbstractCap.integer(old))


def _t_csr_imm(v, index, ops, state):
    name, _imm = ops
    _check_protected_csr(v, index, name)
    v._csr_write(str(name), None)


def _check_protected_csr(v: Verifier, index: int, name) -> None:
    if str(name) in _PROTECTED_CSRS:
        span = v._span
        if span is not None and not span.pcc_has_sr:
            v._report(
                VIOLATION,
                "scr-access",
                index,
                f"protected CSR {name} accessed without SR on the PCC",
            )
        else:
            v.sink.prove("scr-access")


def _t_nop(v, index, ops, state):
    pass


_TRANSFER = {
    "li": _t_li,
    "lui": _t_lui,
    "mv": _t_mv,
    "addi": _t_addi,
    "add": _int_binop(_iv_add),
    "sub": _int_binop(_iv_sub),
    "cmove": _t_cmove,
    "cgetaddr": _t_cgetaddr,
    "cgetbase": _t_cgetbase,
    "cgettop": _t_cgettop,
    "cgetlen": _t_cgetlen,
    "cgettag": _t_cgettag,
    "cgetperm": _t_cgetint,
    "cgettype": _t_cgetint,
    "ctestsubset": _t_cgetint,
    "csub": _t_cgetint,
    "cram": _t_cgetint,
    "crrl": _t_cgetint,
    "csetaddr": _t_csetaddr,
    "cincaddr": _t_cincaddr,
    "cincaddrimm": _t_cincaddrimm,
    "csetbounds": _t_csetbounds,
    "csetboundsexact": _t_csetbounds,
    "csetboundsimm": _t_csetboundsimm,
    "candperm": _t_candperm,
    "ccleartag": _t_ccleartag,
    "cseal": _t_cseal,
    "cunseal": _t_cunseal,
    "csealentry": _t_csealentry,
    "cspecialrw": _t_cspecialrw,
    "auipcc": _t_auipcc,
    "jal": _t_jal,
    "jalr": _t_jalr,
    "ret": _t_ret,
    "clc": _t_clc,
    "csc": _t_csc,
    "csrr": _t_csrr,
    "csrw": _t_csrw,
    "csrrw": _t_csrrw,
    "csrsi": _t_csr_imm,
    "csrci": _t_csr_imm,
    "nop": _t_nop,
    "ecall": _t_nop,
    "wfi": _t_nop,
    "mret": _t_nop,
    "halt": _t_nop,
    "j": _t_nop,
}


def verify_image(image: ImageSpec) -> VerifyResult:
    """Run the static verifier over one image specification."""
    return Verifier(image).run()

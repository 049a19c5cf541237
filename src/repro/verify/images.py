"""The audited image set: every example/workload image as a spec.

Each entry mirrors how the corresponding runner actually boots the
image — same program text, same code base, same entry registers — so
the static verdicts are about the images the dynamic campaigns and
benchmarks run, not about synthetic look-alikes.

* ``baremetal`` — the bare-metal capability tour of
  ``examples/baremetal_assembly.py`` (narrowing, stash/reload through
  the load filter, the UAF probe);
* ``regwalk`` — the register-corruption workload the fault-injection
  engine drives (:mod:`repro.faultinject.engine`);
* ``switcher`` — the hand-written assembly switcher plus the
  caller/callee scaffolding of the integration suite: three compartment
  spans (caller, trusted switcher, callee) with the sealed export token
  and the trusted-stack/export-table slotted regions;
* ``coremark`` — the compiled CoreMark workalike under the CHERIoT
  target (:mod:`repro.workloads.coremark`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict

from repro.capability import Permission as P, SentryType, make_roots
from repro.capability.otypes import RTOS_DATA_OTYPES, RETURN_SENTRY_OTYPES
from repro.isa import assemble
from repro.memory import default_memory_map

from .absint import CompartmentSpan, ImageSpec
from .domain import ALL_PERMS, AbstractCap, Tri

#: The bare-metal tour (mirrors ``examples/baremetal_assembly.py``).
_BAREMETAL = """
_start:
    cincaddrimm t0, s0, 32
    csetboundsimm t0, t0, 16
    li t1, 0xBEEF
    sw t1, 0(t0)
    lw a0, 0(t0)
    csc t0, 0(s1)
    clc t2, 0(s1)
    cgettag a1, t2
    halt
_uaf:
    clc t0, 0(s1)
    cgettag a1, t0
    lw a2, 0(t0)
    halt
"""

#: Caller/callee scaffolding around the switcher (mirrors
#: ``tests/integration/test_asm_switcher.py``).
_SWITCHER_CALLEE = """
callee_entry:
    cincaddrimm csp, csp, -32
    csc c0, 0(csp)
    sw a0, 8(csp)
    add a0, a0, a1
    cgettag a4, s1
    cgettag a5, ra
    cincaddrimm csp, csp, 32
    ret
"""

_SWITCHER_CALLER = """
_start:
    cincaddrimm csp, csp, -64
    li t1, 0x5EC9E7
    sw t1, 0(csp)
    sw t1, 32(csp)
    li a0, 30
    li a1, 12
    jalr ra, s0
    csrr a2, mstatus_mie
    halt
"""


def _return_sentry(has_sr: bool = False) -> AbstractCap:
    """Any caller's return sentry: sealed, executable, otype RET_*."""
    must = {P.EX, P.GL}
    if has_sr:
        must.add(P.SR)
    return AbstractCap(
        tag=Tri.YES,
        otypes=frozenset(int(s) for s in RETURN_SENTRY_OTYPES),
        perms_must=frozenset(must),
        perms_may=ALL_PERMS,
        bounds=None,
        addr=None,
        prov=frozenset({"code"}),
    )


def baremetal_image() -> ImageSpec:
    mm = default_memory_map()
    roots = make_roots()
    program = assemble(_BAREMETAL, name="baremetal-tour")
    heap_obj = roots.memory.set_address(mm.heap.base).set_bounds(256)
    stash = roots.memory.set_address(mm.globals_.base).set_bounds(64)
    span = CompartmentSpan(
        name="main",
        span=(0, len(program.instructions)),
        entries=(program.entry("_start"), program.entry("_uaf")),
        entry_regs={
            8: AbstractCap.from_capability(heap_obj, "heap"),
            9: AbstractCap.from_capability(stash, "globals"),
        },
        pcc_has_sr=True,
        pcc_bounds=(roots.executable.base, roots.executable.top),
    )
    return ImageSpec(
        name="baremetal",
        program=program,
        code_base=mm.code.base,
        compartments=(span,),
        load_filter=True,
    )


def regwalk_image() -> ImageSpec:
    from repro.faultinject.engine import _BUF_OFFSET, _BUF_SIZE, _CODE_BASE
    from repro.faultinject.engine import _REG_PROGRAM

    roots = make_roots()
    program = assemble(_REG_PROGRAM, name="regwalk")
    buffer = (
        roots.memory.set_address(_CODE_BASE + _BUF_OFFSET).set_bounds(_BUF_SIZE)
    )
    span = CompartmentSpan(
        name="main",
        span=(0, len(program.instructions)),
        entries=(0,),
        entry_regs={10: AbstractCap.from_capability(buffer, "globals")},
        pcc_has_sr=True,
        pcc_bounds=(roots.executable.base, roots.executable.top),
    )
    return ImageSpec(
        name="regwalk",
        program=program,
        code_base=_CODE_BASE,
        compartments=(span,),
    )


def switcher_image() -> ImageSpec:
    from repro.rtos.asm_switcher import SWITCHER_ASM

    code_base = 0x2000_0000
    stack_base, stack_size = 0x2000_8000, 0x200
    trusted_stack_at, export_table_at = 0x2000_9000, 0x2000_9800
    stack_top = stack_base + stack_size

    roots = make_roots()
    program = assemble(
        SWITCHER_ASM + _SWITCHER_CALLEE + _SWITCHER_CALLER,
        name="asm-switcher-image",
    )
    export_otype = RTOS_DATA_OTYPES["compartment-export"]

    switcher_pc = code_base + 4 * program.entry("switcher_call")
    switcher_token = roots.executable.set_address(switcher_pc).seal_sentry(
        SentryType.DISABLE_INTERRUPTS
    )
    callee_pc = code_base + 4 * program.entry("callee_entry")
    callee_code = (
        roots.executable.set_address(callee_pc)
        .clear_perms(P.SR)
        .seal_sentry(SentryType.INHERIT)
    )
    seal_authority = roots.sealing.set_address(export_otype)
    export_entry = roots.memory.set_address(export_table_at).set_bounds(8)
    export_token = export_entry.seal(seal_authority)
    trusted = roots.memory.set_address(trusted_stack_at).set_bounds(256)
    stack_cap = (
        roots.memory.set_address(stack_base)
        .set_bounds(stack_size)
        .and_perms({P.LD, P.SD, P.MC, P.SL, P.LM, P.LG})
        .set_address(stack_top)
    )

    # The caller's stack capability as the switcher sees it: same
    # authority, any legal SP.
    caller_csp = replace(
        AbstractCap.from_capability(stack_cap, "stack"),
        addr=(stack_base, stack_top),
    )
    exec_bounds = (roots.executable.base, roots.executable.top)

    switcher_span = CompartmentSpan(
        name="switcher",
        span=(program.entry("switcher_call"), program.entry("callee_entry")),
        entries=(program.entry("switcher_call"),),
        entry_regs={
            1: _return_sentry(has_sr=True),  # ra: the caller's sentry
            2: caller_csp,
            5: AbstractCap.from_capability(export_token, "export-table"),
            10: AbstractCap.unknown(),  # a0..a3 pass through untouched
            11: AbstractCap.unknown(),
            12: AbstractCap.unknown(),
            13: AbstractCap.unknown(),
        },
        entry_scrs={
            "mtdc": AbstractCap.from_capability(seal_authority, "sealing"),
            "mscratchc": replace(
                AbstractCap.from_capability(trusted, "trusted-stack"),
                addr=(trusted_stack_at, trusted_stack_at + 256),
            ),
        },
        entry_csrs={"mshwm": (stack_base, stack_top)},
        pcc_has_sr=True,
        pcc_bounds=exec_bounds,
    )
    # The callee enters through the SR-stripped INHERIT sentry with the
    # chopped stack (bounds unknown statically — set per call).
    callee_span = CompartmentSpan(
        name="callee",
        span=(program.entry("callee_entry"), program.entry("_start")),
        entries=(program.entry("callee_entry"),),
        entry_regs={
            1: _return_sentry(),  # the switcher's return sentry
            2: AbstractCap(
                tag=Tri.YES,
                otypes=frozenset({0}),
                perms_must=frozenset({P.LD, P.SD, P.MC, P.SL, P.LM, P.LG}),
                perms_may=frozenset({P.LD, P.SD, P.MC, P.SL, P.LM, P.LG}),
                bounds=None,
                addr=(stack_base, stack_top),
                prov=frozenset({"stack"}),
            ),
            10: AbstractCap.unknown(),
            11: AbstractCap.unknown(),
        },
        pcc_has_sr=False,
        pcc_bounds=exec_bounds,
    )
    caller_span = CompartmentSpan(
        name="caller",
        span=(program.entry("_start"), len(program.instructions)),
        entries=(program.entry("_start"),),
        entry_regs={
            2: AbstractCap.from_capability(stack_cap, "stack"),
            5: AbstractCap.from_capability(export_token, "export-table"),
            8: AbstractCap.from_capability(switcher_token, "code"),
        },
        entry_csrs={"mshwm": (stack_base, stack_top)},
        pcc_has_sr=True,
        pcc_bounds=exec_bounds,
    )
    return ImageSpec(
        name="switcher",
        program=program,
        code_base=code_base,
        compartments=(switcher_span, callee_span, caller_span),
        memory={
            "export-table#0": AbstractCap.from_capability(callee_code, "code"),
        },
        slotted=frozenset({"trusted-stack", "export-table"}),
    )


def coremark_image() -> ImageSpec:
    from repro.workloads.coremark import _assembled_image

    mm = default_memory_map()
    roots = make_roots()
    program = _assembled_image("cheriot", 2, False, False, mm.globals_.base)
    stack_cap = (
        roots.memory.set_address(mm.stacks.base)
        .set_bounds(mm.stacks.size)
        .set_address(mm.stacks.top - 8)
        .clear_perms(P.GL)
    )
    gp_cap = roots.memory.set_address(mm.globals_.base).set_bounds(
        mm.globals_.size
    )
    span = CompartmentSpan(
        name="app",
        span=(0, len(program.instructions)),
        entries=(program.entry("_start"),),
        entry_regs={
            2: AbstractCap.from_capability(stack_cap, "stack"),
            3: AbstractCap.from_capability(gp_cap, "globals"),
        },
        pcc_has_sr=True,
        pcc_bounds=(roots.executable.base, roots.executable.top),
    )
    return ImageSpec(
        name="coremark",
        program=program,
        code_base=mm.code.base,
        compartments=(span,),
    )


#: Name -> builder for every image the ``audit`` artifact verifies.
AUDITED_IMAGES: Dict[str, Callable[[], ImageSpec]] = {
    "baremetal": baremetal_image,
    "regwalk": regwalk_image,
    "switcher": switcher_image,
    "coremark": coremark_image,
}

"""The audited image set: every example/workload image as a spec.

Each entry boots the image its runner boots — the runner's own program
text, code base and entry registers, imported rather than retyped — so
the static verdicts are about the images the dynamic campaigns and
benchmarks run, not about synthetic look-alikes.

* ``baremetal`` — the bare-metal capability tour that
  ``examples/baremetal_assembly.py`` runs (narrowing, stash/reload
  through the load filter, the UAF probe), defined here;
* ``regwalk`` — the register-corruption workload the fault-injection
  engine drives (:mod:`repro.faultinject.engine`);
* ``switcher`` — the hand-written assembly switcher plus the
  caller/callee scaffolding of the integration suite, as
  :func:`repro.rtos.asm_switcher.build_image` boots them: three
  compartment spans (caller, trusted switcher, callee) with the sealed
  export token and the trusted-stack/export-table slotted regions;
* ``coremark`` — the compiled CoreMark workalike under the CHERIoT
  target (:mod:`repro.workloads.coremark`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Tuple

from repro.capability import Capability, Permission as P, make_roots
from repro.capability.otypes import RETURN_SENTRY_OTYPES
from repro.isa import ExecutionMode, assemble
from repro.memory import default_memory_map

from .absint import CompartmentSpan, ImageSpec
from .domain import ALL_PERMS, AbstractCap, Tri

#: The bare-metal tour's first entry, ``_start`` (s0 and s1 from
#: :func:`baremetal_entry_registers`; ``examples/baremetal_assembly.py``
#: runs it).
BAREMETAL_TOUR = """
# a0 <- s0 narrowed to [addr, addr+16) with write permission shed later
_start:
    cincaddrimm t0, s0, 32        # move into the buffer
    csetboundsimm t0, t0, 16      # narrow: monotone, irreversible
    li t1, 0xBEEF
    sw t1, 0(t0)                  # in-bounds store: fine
    lw a0, 0(t0)                  # read it back

    # Stash the narrowed capability in memory and reload it (clc goes
    # through the load filter).
    csc t0, 0(s1)
    clc t2, 0(s1)
    cgettag a1, t2                # 1: still tagged, nothing freed yet
    halt
"""

#: The tour's second entry, ``_uaf``: run after the object is freed.
BAREMETAL_UAF = """
_uaf:
    clc t0, 0(s1)                 # reload the stashed capability
    cgettag a1, t0                # 0: the load filter stripped the tag
    lw a2, 0(t0)                  # -> traps: cheri-tag-violation
    halt
"""


def baremetal_entry_registers() -> Tuple[Capability, Capability]:
    """``(s0, s1)``: what the tour finds in registers 8 and 9.

    ``s0`` is a 256-byte object at the heap's base and ``s1`` a 64-byte
    stash at the globals' base, both derived from the memory root.
    """
    mm = default_memory_map()
    memory = make_roots().memory
    return (
        memory.set_address(mm.heap.base).set_bounds(256),
        memory.set_address(mm.globals_.base).set_bounds(64),
    )


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
    program = assemble(BAREMETAL_TOUR + BAREMETAL_UAF, name="baremetal-tour")
    heap_obj, stash = baremetal_entry_registers()
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
    from repro.rtos.asm_switcher import CALLEE_ASM, CALLER_ASM, build_image

    # Every capability comes from the booted image: the switcher
    # sentry (s0), the export token (t0), the stack (csp), the two
    # special registers and the export-table entry the token seals.
    image = build_image(CALLEE_ASM, CALLER_ASM)
    program = image.program
    stack_base, stack_top = image.stack_base, image.stack_top
    stack_cap, export_token = image.stack_cap, image.export_token
    seal_authority = image.cpu.regs.read_scr("mtdc")
    trusted = image.cpu.regs.read_scr("mscratchc")
    callee_code = image.bus.read_capability(export_token.address)

    # The caller's stack capability as the switcher sees it: same
    # authority, any legal SP.
    caller_csp = replace(
        AbstractCap.from_capability(stack_cap, "stack"),
        addr=(stack_base, stack_top),
    )
    exec_bounds = (image.cpu.pcc.base, image.cpu.pcc.top)

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
                addr=(trusted.base, trusted.top),
            ),
        },
        entry_csrs={"mshwm": (stack_base, stack_top)},
        pcc_has_sr=True,
        pcc_bounds=exec_bounds,
    )
    # The callee enters through the SR-stripped INHERIT sentry with the
    # chopped stack: the caller's stack permissions, bounds unknown
    # statically (set per call).
    stack_perms = frozenset(stack_cap.perms)
    callee_span = CompartmentSpan(
        name="callee",
        span=(program.entry("callee_entry"), program.entry("_start")),
        entries=(program.entry("callee_entry"),),
        entry_regs={
            1: _return_sentry(),  # the switcher's return sentry
            2: AbstractCap(
                tag=Tri.YES,
                otypes=frozenset({0}),
                perms_must=stack_perms,
                perms_may=stack_perms,
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
            8: AbstractCap.from_capability(image.switcher_token, "code"),
        },
        entry_csrs={"mshwm": (stack_base, stack_top)},
        pcc_has_sr=True,
        pcc_bounds=exec_bounds,
    )
    return ImageSpec(
        name="switcher",
        program=program,
        code_base=image.code_base,
        compartments=(switcher_span, callee_span, caller_span),
        memory={
            "export-table#0": AbstractCap.from_capability(callee_code, "code"),
        },
        slotted=frozenset({"trusted-stack", "export-table"}),
    )


def coremark_image() -> ImageSpec:
    from repro.workloads.coremark import coremark_program, entry_registers

    mm = default_memory_map()
    roots = make_roots()
    program = coremark_program("cheriot", 2)
    stack_cap, gp_cap = entry_registers(
        ExecutionMode.CHERIOT, mm.stacks, mm.globals_
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

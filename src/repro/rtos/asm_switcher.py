"""The compartment switcher as actual (simulated) machine code.

The Python :class:`~repro.rtos.switcher.CompartmentSwitcher` models the
trusted path and charges modeled costs; this module is the ground
truth: the same call/return sequence written in the simulated ISA, so
the "little over 300 hand-written instructions" figure (paper §2.6)
and the stack-zeroing behaviour can be *measured* instead of assumed.

Protocol (registers at the caller's ``jalr`` into the switcher sentry):

* ``t0`` — the sealed export token (data capability, RTOS export otype,
  pointing at the exporter's export-table entry);
* ``a0..a3`` — arguments, passed through untouched;
* ``csp`` — the caller's stack capability, address = current SP;
* ``ra`` — written by the ``jalr`` with the caller's return sentry.

Special registers owned by the switcher (SR-protected):

* ``mtdc`` — the unseal authority for the export otype;
* ``mscratchc`` — the trusted-stack capability (switcher-private SRAM).

The export-table entry holds one capability: the callee's entry point
sealed as an interrupt-inheriting sentry, with SR removed so callee
code cannot reach the switcher's CSRs.

Call path: push (caller ra, caller csp) on the trusted stack; unseal
the token; load the callee entry sentry; zero the caller's dirty stack
``[mshwm, sp)`` with NULL capability stores (clearing data *and* tags);
chop ``csp`` to ``[stack_base, sp)``; reset ``mshwm``; clear every
non-argument register; jump.  The link of that jump is the switcher's
own return sentry (posture: disabled), so the callee's ``ret`` lands on
the return path: zero the callee's dirty stack, pop and restore the
caller's ``csp``/return sentry, clear non-result registers, return.

The switcher itself is entered through a DISABLE_INTERRUPTS sentry —
the whole trusted path runs with interrupts off, and that fact is
auditable from the image (§3.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.capability import Capability, Permission as P, SentryType, make_roots
from repro.capability.otypes import RTOS_DATA_OTYPES
from repro.isa import CPU, ExecutionMode, Tier, assemble
from repro.memory import SystemBus, TaggedMemory

#: The hand-written trusted path.  Labels `switcher_call` and
#: `switcher_return` are the two halves; everything else is callee/
#: caller scaffolding supplied by the image builder.
SWITCHER_ASM = """
switcher_call:
    # --- push caller state onto the trusted stack ---------------------
    cspecialrw t2, mscratchc, c0
    csc ra, 0(t2)                  # caller's return sentry
    csc csp, 8(t2)                 # caller's stack capability
    cincaddrimm t2, t2, 16
    cspecialrw c0, mscratchc, t2

    # --- validate + unseal the export token ---------------------------
    cspecialrw t1, mtdc, c0        # unseal authority (US, addr = otype)
    cunseal t0, t0, t1             # faults on forged/wrong-otype tokens
    cspecialrw c0, mtdc, t1        # put the authority back
    clc s0, 0(t0)                  # callee entry sentry from the table

    # --- zero the caller's dirty stack: [mshwm, sp) --------------------
    csrr t1, mshwm
    cgetaddr s1, csp
    csetaddr t2, csp, t1           # zeroing cursor
call_zero_loop:
    bgeu t1, s1, call_zero_done
    csc c0, 0(t2)                  # NULL store: clears data and tag
    cincaddrimm t2, t2, 8
    addi t1, t1, 8
    j call_zero_loop
call_zero_done:
    csrw mshwm, s1                 # reset the mark to SP

    # --- chop the stack: callee sees only [stack_base, sp) -------------
    cgetbase t1, csp
    csetaddr csp, csp, t1          # address to base for csetbounds
    sub t2, s1, t1                 # length = sp - base
    csetbounds csp, csp, t2
    csetaddr csp, csp, s1          # SP at the (representable) top

    # --- clear every register that is not an argument ------------------
    mv t0, zero
    mv t1, zero
    mv t2, zero
    mv s1, zero
    mv a4, zero
    mv a5, zero
    mv gp, zero
    mv tp, zero

    # --- enter the callee ----------------------------------------------
    jalr ra, s0                    # link = switcher return sentry
                                   # (falls through = return path)

switcher_return:
    # --- zero what the callee dirtied: [mshwm, callee sp) --------------
    csrr t1, mshwm
    cgetaddr s1, csp
    csetaddr t2, csp, t1
ret_zero_loop:
    bgeu t1, s1, ret_zero_done
    csc c0, 0(t2)
    cincaddrimm t2, t2, 8
    addi t1, t1, 8
    j ret_zero_loop
ret_zero_done:

    # --- pop caller state ----------------------------------------------
    cspecialrw t2, mscratchc, c0
    cincaddrimm t2, t2, -16
    clc csp, 8(t2)
    clc s0, 0(t2)                  # caller's return sentry
    cspecialrw c0, mscratchc, t2
    cgetaddr t1, csp
    csrw mshwm, t1                 # mark = caller SP again

    # --- clear non-result registers ------------------------------------
    mv t0, zero
    mv t1, zero
    mv t2, zero
    mv s1, zero
    mv a2, zero
    mv a3, zero
    mv a4, zero
    mv a5, zero
    mv gp, zero
    mv tp, zero

    jalr c0, s0                    # back to the caller (posture restored)
"""


@dataclass
class AsmSwitcherImage:
    """A booted ISA-level system with the assembly switcher installed."""

    cpu: CPU
    bus: SystemBus
    program: object
    code_base: int
    switcher_token: Capability  # sentry the caller jumps through
    export_token: Capability  # sealed export reference for t0
    stack_cap: Capability
    stack_base: int
    stack_top: int


def build_image(
    callee_asm: str,
    caller_asm: str,
    code_base: int = 0x2000_0000,
    stack_base: int = 0x2000_8000,
    stack_size: int = 0x200,
    trusted_stack_at: int = 0x2000_9000,
    export_table_at: int = 0x2000_9800,
    tier: Tier = Tier.FUSED,
) -> AsmSwitcherImage:
    """Assemble switcher + callee + caller into one bootable image.

    ``caller_asm`` must define ``_start`` and jump via ``jalr ra, s0``
    where s0 holds the switcher sentry and t0 the export token (both
    pre-loaded in registers by this builder).  ``callee_asm`` must
    define ``callee_entry`` and end with ``ret``.  ``tier`` picks the
    CPU's execution tier (:class:`~repro.isa.Tier`).
    """
    roots = make_roots()
    source = SWITCHER_ASM + callee_asm + caller_asm
    program = assemble(source, name="asm-switcher-image")

    bus = SystemBus()
    bus.attach_sram(TaggedMemory(code_base, 0x1_0000))
    cpu = CPU(bus, ExecutionMode.CHERIOT, tier=tier)
    cpu.load_program(program, code_base, pcc=roots.executable, entry="_start")

    # The switcher's entry sentry: disable interrupts, keep SR.
    switcher_pc = code_base + 4 * program.entry("switcher_call")
    switcher_token = roots.executable.set_address(switcher_pc).seal_sentry(
        SentryType.DISABLE_INTERRUPTS
    )

    # The callee's entry sentry: inherit posture, SR removed.
    callee_pc = code_base + 4 * program.entry("callee_entry")
    callee_code = (
        roots.executable.set_address(callee_pc)
        .clear_perms(P.SR)
        .seal_sentry(SentryType.INHERIT)
    )

    # Export table: one capability slot, sealed reference handed out.
    bus.write_capability(export_table_at, callee_code)
    export_otype = RTOS_DATA_OTYPES["compartment-export"]
    seal_authority = roots.sealing.set_address(export_otype)
    export_entry = roots.memory.set_address(export_table_at).set_bounds(8)
    export_token = export_entry.seal(seal_authority)

    # Special registers: unseal authority and trusted stack.
    cpu.regs.write_scr("mtdc", roots.sealing.set_address(export_otype))
    trusted = roots.memory.set_address(trusted_stack_at).set_bounds(256)
    cpu.regs.write_scr("mscratchc", trusted)

    # The caller's stack capability (local, SL) and the HWM CSRs.
    stack_top = stack_base + stack_size
    stack_cap = (
        roots.memory.set_address(stack_base)
        .set_bounds(stack_size)
        .and_perms({P.LD, P.SD, P.MC, P.SL, P.LM, P.LG})
        .set_address(stack_top)
    )
    cpu.regs.write(2, stack_cap)
    cpu.csr.set_stack(stack_base, stack_top)

    cpu.regs.write(8, switcher_token)  # s0 for the caller's jump
    cpu.regs.write(5, export_token)  # t0: the export token

    return AsmSwitcherImage(
        cpu=cpu,
        bus=bus,
        program=program,
        code_base=code_base,
        switcher_token=switcher_token,
        export_token=export_token,
        stack_cap=stack_cap,
        stack_base=stack_base,
        stack_top=stack_top,
    )

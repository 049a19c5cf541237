"""A CoreMark workalike for the ISA simulator (paper Table 3).

EEMBC CoreMark exercises three kernels — linked-list processing, matrix
multiplication, and a CRC-checked state machine — and reports iterations
per second per MHz.  This module builds the same three kernels in the
mini-compiler IR, lowers them for rv32e or CHERIoT, runs them on the
functional simulator under a core timing model, and reports score and
overhead.

The kernels deliberately preserve what makes CoreMark sensitive to the
CHERIoT changes the paper discusses: the list kernel is pointer-chasing
(every ``next`` is a capability load through the load filter), the
matrix kernel is address-computation heavy (hit by the constant-folding
compiler bug), and the state machine reads globals (hit by the
redundant-bounds compiler bug).

Absolute CoreMark scores are meaningless for a workalike subset, so the
benchmark reports *iterations per megacycle* plus a per-core calibration
constant that maps the RV32E baseline onto the paper's score; the
overheads — the paper's actual claim — emerge from the mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from repro.capability import Capability, Permission, make_roots
from repro.cc import ir
from repro.cc.lower import GlobalLayout, Target, compile_module
from repro.isa import CPU, ExecutionMode, LoadFilter, Program, Tier, assemble
from repro.memory import (
    Region,
    RevocationMap,
    SystemBus,
    TaggedMemory,
    default_memory_map,
)
from repro.pipeline import CoreKind, make_core_model

#: Linked-list length (nodes).
LIST_NODES = 64
#: Matrix dimension (n x n of 32-bit ints).
MATRIX_N = 6
#: Input length for the state-machine kernel (bytes).
INPUT_LEN = 48


def _node_layout(ptr_size: int) -> "tuple[int, int, int]":
    """(next_offset, data_offset, stride) for the list node struct."""
    next_off = 0
    data_off = ptr_size
    stride = (ptr_size + 4 + 7) & ~7  # 8 on rv32e, 16 on cheriot
    return next_off, data_off, stride


def build_coremark_module(ptr_size: int) -> ir.Module:
    """Build the three-kernel module for a target pointer size."""
    next_off, data_off, stride = _node_layout(ptr_size)
    module = ir.Module()
    module.add_global("nodes", LIST_NODES * stride)
    module.add_global("mat_a", MATRIX_N * MATRIX_N * 4)
    module.add_global("mat_b", MATRIX_N * MATRIX_N * 4)
    module.add_global("mat_c", MATRIX_N * MATRIX_N * 4)
    module.add_global("input", INPUT_LEN)
    module.add_global("results", 16)

    V, C, B = ir.Var, ir.Const, ir.BinOp

    # -- crc16: the bit-serial update CoreMark applies to results -------
    crc = ir.Function(
        "crc16",
        params=[ir.Param("data", ir.INT), ir.Param("crc", ir.INT)],
        locals={"i": ir.INT, "x": ir.INT},
    )
    crc.body = [
        ir.Assign("i", C(0)),
        ir.While(
            B("<", V("i"), C(8)),
            (
                ir.Assign("x", B("^", V("crc"), V("data"))),
                ir.Assign("x", B("&", V("x"), C(1))),
                ir.Assign("crc", B(">>", V("crc"), C(1))),
                ir.If(
                    B("!=", V("x"), C(0)),
                    (ir.Assign("crc", B("^", V("crc"), C(0xA001))),),
                ),
                ir.Assign("data", B(">>", V("data"), C(1))),
                ir.Assign("i", B("+", V("i"), C(1))),
            ),
        ),
        ir.Return(V("crc")),
    ]
    module.add_function(crc)

    # -- list_init: build the chain and seed the data fields ------------
    list_init = ir.Function(
        "list_init",
        locals={"i": ir.INT, "p": ir.PTR, "nxt": ir.PTR},
    )
    list_init.body = [
        ir.Assign("i", C(0)),
        ir.While(
            B("<", V("i"), C(LIST_NODES)),
            (
                ir.Assign(
                    "p",
                    ir.PtrAdd(ir.GlobalRef("nodes"), B("*", V("i"), C(stride))),
                ),
                ir.Store(V("p"), B("&", B("*", V("i"), C(7)), C(0xFF)), data_off),
                ir.If(
                    B("<", V("i"), C(LIST_NODES - 1)),
                    (
                        ir.Assign(
                            "nxt",
                            ir.PtrAdd(
                                ir.GlobalRef("nodes"),
                                B("*", B("+", V("i"), C(1)), C(stride)),
                            ),
                        ),
                        ir.StorePtr(V("p"), V("nxt"), next_off),
                    ),
                    (ir.StorePtr(V("p"), C(0), next_off),),
                ),
                ir.Assign("i", B("+", V("i"), C(1))),
            ),
        ),
        ir.Return(),
    ]
    module.add_function(list_init)

    # -- list_search: pointer-chase for a value, CRC the path length ----
    list_search = ir.Function(
        "list_search",
        params=[ir.Param("value", ir.INT)],
        locals={"p": ir.PTR, "steps": ir.INT, "d": ir.INT},
    )
    list_search.body = [
        ir.Assign("p", ir.GlobalRef("nodes")),
        ir.Assign("steps", C(0)),
        ir.While(
            B("!=", V("p"), C(0)),
            (
                ir.Assign("d", ir.Load(V("p"), data_off)),
                ir.If(B("==", V("d"), V("value")), (ir.Return(V("steps")),)),
                ir.Assign("p", ir.Load(V("p"), next_off, as_ptr=True)),
                ir.Assign("steps", B("+", V("steps"), C(1))),
            ),
        ),
        ir.Return(V("steps")),
    ]
    module.add_function(list_search)

    # -- list_sum: full chase accumulating data ------------------------
    list_sum = ir.Function(
        "list_sum", locals={"p": ir.PTR, "acc": ir.INT}
    )
    list_sum.body = [
        ir.Assign("p", ir.GlobalRef("nodes")),
        ir.Assign("acc", C(0)),
        ir.While(
            B("!=", V("p"), C(0)),
            (
                ir.Assign("acc", B("+", V("acc"), ir.Load(V("p"), data_off))),
                ir.Assign("p", ir.Load(V("p"), next_off, as_ptr=True)),
            ),
        ),
        ir.Return(V("acc")),
    ]
    module.add_function(list_sum)

    # -- mat_init / matmul ---------------------------------------------
    mat_init = ir.Function("mat_init", locals={"i": ir.INT, "p": ir.PTR})
    mat_init.body = [
        ir.Assign("i", C(0)),
        ir.While(
            B("<", V("i"), C(MATRIX_N * MATRIX_N)),
            (
                ir.Assign(
                    "p", ir.PtrAdd(ir.GlobalRef("mat_a"), B("*", V("i"), C(4)))
                ),
                ir.Store(V("p"), B("+", V("i"), C(1))),
                ir.Assign(
                    "p", ir.PtrAdd(ir.GlobalRef("mat_b"), B("*", V("i"), C(4)))
                ),
                ir.Store(V("p"), B("^", V("i"), C(5))),
                ir.Assign("i", B("+", V("i"), C(1))),
            ),
        ),
        ir.Return(),
    ]
    module.add_function(mat_init)

    matmul = ir.Function(
        "matmul",
        locals={
            "i": ir.INT,
            "j": ir.INT,
            "k": ir.INT,
            "acc": ir.INT,
            "pa": ir.PTR,
            "pb": ir.PTR,
            "pc": ir.PTR,
        },
    )
    n = MATRIX_N
    matmul.body = [
        ir.Assign("i", C(0)),
        ir.While(
            B("<", V("i"), C(n)),
            (
                ir.Assign("j", C(0)),
                ir.While(
                    B("<", V("j"), C(n)),
                    (
                        ir.Assign("acc", C(0)),
                        ir.Assign("k", C(0)),
                        ir.While(
                            B("<", V("k"), C(n)),
                            (
                                ir.Assign(
                                    "pa",
                                    ir.PtrAdd(
                                        ir.GlobalRef("mat_a"),
                                        B(
                                            "*",
                                            B("+", B("*", V("i"), C(n)), V("k")),
                                            C(4),
                                        ),
                                    ),
                                ),
                                ir.Assign(
                                    "pb",
                                    ir.PtrAdd(
                                        ir.GlobalRef("mat_b"),
                                        B(
                                            "*",
                                            B("+", B("*", V("k"), C(n)), V("j")),
                                            C(4),
                                        ),
                                    ),
                                ),
                                ir.Assign(
                                    "acc",
                                    B(
                                        "+",
                                        V("acc"),
                                        B("*", ir.Load(V("pa")), ir.Load(V("pb"))),
                                    ),
                                ),
                                ir.Assign("k", B("+", V("k"), C(1))),
                            ),
                        ),
                        ir.Assign(
                            "pc",
                            ir.PtrAdd(
                                ir.GlobalRef("mat_c"),
                                B("*", B("+", B("*", V("i"), C(n)), V("j")), C(4)),
                            ),
                        ),
                        ir.Store(V("pc"), V("acc")),
                        ir.Assign("j", B("+", V("j"), C(1))),
                    ),
                ),
                ir.Assign("i", B("+", V("i"), C(1))),
            ),
        ),
        ir.Return(),
    ]
    module.add_function(matmul)

    # -- state machine: scan input bytes, classify, count transitions --
    str_init = ir.Function("str_init", locals={"i": ir.INT, "p": ir.PTR})
    str_init.body = [
        ir.Assign("i", C(0)),
        ir.While(
            B("<", V("i"), C(INPUT_LEN)),
            (
                ir.Assign("p", ir.PtrAdd(ir.GlobalRef("input"), V("i"))),
                ir.Store(
                    V("p"),
                    B("+", C(0x30), B("%", B("*", V("i"), C(7)), C(12))),
                    0,
                    1,
                ),
                ir.Assign("i", B("+", V("i"), C(1))),
            ),
        ),
        ir.Return(),
    ]
    module.add_function(str_init)

    state_machine = ir.Function(
        "state_machine",
        locals={"i": ir.INT, "c": ir.INT, "state": ir.INT, "count": ir.INT, "p": ir.PTR},
    )
    state_machine.body = [
        ir.Assign("i", C(0)),
        ir.Assign("state", C(0)),
        ir.Assign("count", C(0)),
        ir.While(
            B("<", V("i"), C(INPUT_LEN)),
            (
                ir.Assign("p", ir.PtrAdd(ir.GlobalRef("input"), V("i"))),
                ir.Assign("c", ir.Load(V("p"), 0, 1)),
                # digits 0-9 -> state 1; '+'/'-' (we use ':' ';') -> 2; else 0
                ir.If(
                    B("<=", V("c"), C(0x39)),
                    (
                        ir.If(
                            B(">=", V("c"), C(0x30)),
                            (
                                ir.If(
                                    B("!=", V("state"), C(1)),
                                    (
                                        ir.Assign("count", B("+", V("count"), C(1))),
                                        ir.Assign("state", C(1)),
                                    ),
                                ),
                            ),
                            (ir.Assign("state", C(0)),),
                        ),
                    ),
                    (
                        ir.If(
                            B("==", V("state"), C(1)),
                            (ir.Assign("state", C(2)),),
                            (ir.Assign("state", C(0)),),
                        ),
                    ),
                ),
                ir.Assign("i", B("+", V("i"), C(1))),
            ),
        ),
        ir.Return(V("count")),
    ]
    module.add_function(state_machine)

    # -- one benchmark iteration ----------------------------------------
    iteration = ir.Function(
        "coremark_iteration",
        locals={"crc": ir.INT, "r": ir.INT},
    )
    iteration.body = [
        ir.Assign("r", ir.CallExpr("list_search", (C(14),))),
        ir.Assign("crc", ir.CallExpr("crc16", (V("r"), C(0xFFFF)))),
        ir.Assign("r", ir.CallExpr("list_search", (C(3),))),
        ir.Assign("crc", ir.CallExpr("crc16", (V("r"), V("crc")))),
        ir.Assign("r", ir.CallExpr("list_search", (C(250),))),
        ir.Assign("crc", ir.CallExpr("crc16", (V("r"), V("crc")))),
        ir.Assign("r", ir.CallExpr("list_sum", ())),
        ir.Assign("crc", ir.CallExpr("crc16", (V("r"), V("crc")))),
        ir.Assign("r", ir.CallExpr("list_sum", ())),
        ir.Assign("crc", ir.CallExpr("crc16", (V("r"), V("crc")))),
        ir.ExprStmt(ir.CallExpr("matmul", ())),
        ir.Assign(
            "r",
            ir.Load(ir.PtrAdd(ir.GlobalRef("mat_c"), C(4 * (MATRIX_N + 1)))),
        ),
        ir.Assign("crc", ir.CallExpr("crc16", (V("r"), V("crc")))),
        ir.Assign("r", ir.CallExpr("state_machine", ())),
        ir.Assign("crc", ir.CallExpr("crc16", (V("r"), V("crc")))),
        ir.Store(ir.GlobalRef("results"), V("crc")),
        ir.Return(V("crc")),
    ]
    module.add_function(iteration)

    return module


_DRIVER = """
_start:
    jal ra, list_init
    jal ra, mat_init
    jal ra, str_init
    li s0, {iterations}
_bench_loop:
    jal ra, coremark_iteration
    addi s0, s0, -1
    bnez s0, _bench_loop
    halt
"""

#: One driver per kernel, for :func:`run_kernel_profile`: each runs only
#: that kernel's initialiser and its loop.
_KERNEL_DRIVERS = {
    "list": """
_start:
    jal ra, list_init
    li s0, {iterations}
_bench_loop:
    li a0, 3
    jal ra, list_search
    jal ra, list_sum
    addi s0, s0, -1
    bnez s0, _bench_loop
    halt
""",
    "matrix": """
_start:
    jal ra, mat_init
    li s0, {iterations}
_bench_loop:
    jal ra, matmul
    addi s0, s0, -1
    bnez s0, _bench_loop
    halt
""",
    "state": """
_start:
    jal ra, str_init
    li s0, {iterations}
_bench_loop:
    jal ra, state_machine
    addi s0, s0, -1
    bnez s0, _bench_loop
    halt
""",
}

#: Table 3's configurations, in the table's order.
CONFIGS = ("rv32e", "cheriot", "cheriot+filter")

#: Where every run of this module places code, globals and the stack.
_MEMORY = default_memory_map()


@dataclass
class CoreMarkResult:
    """One configuration's outcome."""

    core: CoreKind
    config: str  # "rv32e" | "cheriot" | "cheriot+filter"
    iterations: int
    cycles: int
    instructions: int
    crc: int

    @property
    def iterations_per_megacycle(self) -> float:
        return self.iterations / (self.cycles / 1e6)


@lru_cache(maxsize=64)
def coremark_program(
    config: str,
    iterations: int,
    kernel: Optional[str] = None,
    data_base: int = _MEMORY.globals_.base,
    fixed_compiler: bool = False,
    optimize: bool = False,
) -> Program:
    """The assembled workalike for one of :data:`CONFIGS`, memoized.

    With ``kernel`` (``"list"``, ``"matrix"`` or ``"state"``) the driver
    loops over that kernel alone; otherwise over the full CoreMark
    iteration.  Globals are addressed at ``data_base``, the base of the
    region :func:`boot` is given as ``globals_``.

    The pipeline from IR to assembled program is deterministic in these
    arguments, and benchmark harnesses (and the regression gate) run the
    same configurations repeatedly — re-assembling dominated short runs.
    The returned program is immutable and shared read-only across CPUs.
    """
    if config not in CONFIGS:
        raise ValueError(f"unknown config {config!r}")
    if kernel is not None and kernel not in _KERNEL_DRIVERS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if iterations < 1:
        # The driver's count-down loop would wrap past zero.
        raise ValueError(f"iterations must be 1 or more, not {iterations}")
    cheriot = config != "rv32e"
    target = Target.CHERIOT if cheriot else Target.RV32E
    module = build_coremark_module(8 if cheriot else 4)
    compiled = compile_module(
        module,
        target,
        fixed_compiler=fixed_compiler,
        data_base=data_base,
        optimize=optimize,
    )
    driver = _KERNEL_DRIVERS[kernel] if kernel else _DRIVER
    name = f"coremark-{kernel}-{config}" if kernel else f"coremark-{config}"
    source = compiled.assembly + driver.format(iterations=iterations)
    return assemble(source, name=name)


# ---------------------------------------------------------------------------
# Booting compiled code
# ---------------------------------------------------------------------------


def entry_registers(
    mode: ExecutionMode, stack: Region, globals_: Region
) -> "tuple[Capability | int, Capability | int]":
    """``(csp, cgp)``: what compiled code finds in registers 2 and 3.

    In CHERIoT mode ``csp`` is a local (GL-less) capability to ``stack``
    and ``cgp`` a capability to ``globals_``, both derived from the
    memory root (so ``cgp`` keeps the root's SL).  In RV32E they are
    plain integers.  Either way the stack pointer starts 8 bytes below
    the stack's top.
    """
    sp = stack.top - 8
    if mode is not ExecutionMode.CHERIOT:
        return sp, globals_.base
    memory = make_roots().memory
    csp = (
        memory.set_address(stack.base)
        .set_bounds(stack.size)
        .set_address(sp)
        .clear_perms(Permission.GL)
    )
    return csp, memory.set_address(globals_.base).set_bounds(globals_.size)


def boot(
    cpu: CPU,
    program: Program,
    code_base: int,
    stack: Region,
    globals_: Region,
    data: Iterable[GlobalLayout] = (),
) -> None:
    """Put ``cpu`` at the entry state of a compiled program.

    Loads ``program`` at ``code_base`` with its PC at ``_start`` (in
    CHERIoT mode under the executable root), writes ``csp`` and ``cgp``
    from :func:`entry_registers`, and copies the initialised globals in
    ``data`` (a compiled module's ``globals_layout.values()``) into
    ``globals_``.
    """
    csp, cgp = entry_registers(cpu.mode, stack, globals_)
    # An RV32E CPU ignores the PCC and takes the registers as integers.
    cpu.load_program(
        program, code_base, pcc=make_roots().executable, entry="_start"
    )
    cheriot = cpu.mode is ExecutionMode.CHERIOT
    write = cpu.regs.write if cheriot else cpu.regs.write_int
    write(2, csp)
    write(3, cgp)
    for layout in data:
        if layout.init:
            cpu.bus.write_bytes(globals_.base + layout.offset, layout.init)


def _run(core: CoreKind, config: str, program: Program, tier: Tier) -> CPU:
    """Run ``program`` to ``halt`` on a fresh bus under one configuration."""
    mm = _MEMORY
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
    filtered = config == "cheriot+filter"
    cpu = CPU(
        bus,
        mode=ExecutionMode.RV32E if config == "rv32e" else ExecutionMode.CHERIOT,
        load_filter=(
            LoadFilter(RevocationMap(mm.heap.base, mm.heap.size))
            if filtered else None
        ),
        timing=make_core_model(core, load_filter_enabled=filtered),
        tier=tier,
    )
    boot(cpu, program, mm.code.base, mm.stacks, mm.globals_)
    cpu.run(max_steps=50_000_000)
    return cpu


def run_coremark(
    core: CoreKind,
    config: str,
    iterations: int = 2,
    fixed_compiler: bool = False,
    optimize: bool = False,
    tier: Tier = Tier.FUSED,
) -> CoreMarkResult:
    """Run the workalike under one of Table 3's configurations.

    ``config`` is one of ``rv32e`` (integer pointers, no capabilities),
    ``cheriot`` (capabilities, load filter disabled), or
    ``cheriot+filter`` (capabilities with the load filter engaged).
    ``tier`` picks the executor's tier (:class:`~repro.isa.Tier`); the
    differential tests run every tier and require identical results.
    """
    program = coremark_program(
        config, iterations, fixed_compiler=fixed_compiler, optimize=optimize
    )
    cpu = _run(core, config, program, tier)
    return CoreMarkResult(
        core=core,
        config=config,
        iterations=iterations,
        cycles=cpu.timing.cycles,
        instructions=cpu.stats.instructions,
        crc=cpu.regs.read_int(10),
    )


#: The paper's Table 3 baseline scores, used only to place our relative
#: results on the paper's absolute scale (CoreMark/MHz).
PAPER_BASELINE_SCORE = {CoreKind.FLUTE: 2.017, CoreKind.IBEX: 2.086}
PAPER_TABLE3 = {
    (CoreKind.FLUTE, "rv32e"): 2.017,
    (CoreKind.FLUTE, "cheriot"): 1.892,
    (CoreKind.FLUTE, "cheriot+filter"): 1.892,
    (CoreKind.IBEX, "rv32e"): 2.086,
    (CoreKind.IBEX, "cheriot"): 1.811,
    (CoreKind.IBEX, "cheriot+filter"): 1.624,
}


def table3(iterations: int = 2) -> "list[dict]":
    """Regenerate Table 3: both cores, all three configurations.

    Returns one row per (core, config) with raw and scaled scores plus
    the overhead relative to the same core's rv32e baseline.
    """
    rows = []
    for core in (CoreKind.FLUTE, CoreKind.IBEX):
        base = run_coremark(core, "rv32e", iterations)
        scale = PAPER_BASELINE_SCORE[core] / base.iterations_per_megacycle
        for config in CONFIGS:
            result = (
                base if config == "rv32e" else run_coremark(core, config, iterations)
            )
            raw = result.iterations_per_megacycle
            overhead = (base.cycles and (result.cycles - base.cycles) / base.cycles)
            rows.append(
                {
                    "core": core.value,
                    "config": config,
                    "cycles": result.cycles,
                    "instructions": result.instructions,
                    "score_raw": raw,
                    "score_scaled": raw * scale,
                    "overhead_pct": 100.0 * overhead,
                    "paper_score": PAPER_TABLE3[(core, config)],
                    "crc": result.crc,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Per-kernel profiling
# ---------------------------------------------------------------------------


def run_kernel_profile(
    core: CoreKind, config: str, iterations: int = 2
) -> "dict[str, int]":
    """Per-kernel cycle counts for one configuration.

    The paper attributes the CHERIoT overheads to specific kernels (the
    pointer-chasing list code suffers the load filter; address-heavy
    matrix code suffers the folding bug); this breakdown makes that
    attribution measurable.
    """
    return {
        kernel: _run(
            core,
            config,
            coremark_program(config, iterations, kernel),
            Tier.FUSED,
        ).timing.cycles
        for kernel in _KERNEL_DRIVERS
    }

"""The Section-7 tables: the one producer of ``bench_output_tables.txt``.

Every reproduced table and figure of the paper's evaluation is one
section of the file: a banner-wrapped title and a plain-text body.
:func:`bench_tables` measures them all through
:func:`~repro.artifact.parallel_map` — the 208 cells of the allocator
sweep (Table 4 and Figures 5-6 are three views of it) and one task per
other measurement, longest first — and renders the sections in a fixed
order, so the bytes are the same for any job count.

:data:`CLAIMS` are the paper's shapes (orderings, crossovers, rough
factors).  :func:`tables_claims` finds each section by its title, reads
it back through the reader beside its renderer, and checks every claim
at the precision the file prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.allocator import CheriHeap, TemporalSafetyMode
from repro.analysis.energy import security_battery_cost
from repro.analysis.fragmentation import (
    average_fragmentation,
    max_precise_length,
    rule_of_thumb_fragmentation,
)
from repro.analysis.reporting import (
    format_series,
    format_table,
    read_series,
    read_table,
    size_label,
)
from repro.artifact import Inputs, parallel_map
from repro.capability import compression, make_roots
from repro.hw.area_power import area_power_table, format_table2, read_table2
from repro.hw.critical_path import format_timing
from repro.iot.app import IoTApplication
from repro.iot.loadgen import run_point
from repro.machine import System
from repro.memory import RevocationMap, SystemBus, TaggedMemory, default_memory_map
from repro.memory.revocation_map import SRAM_OVERHEAD
from repro.pipeline import CoreKind, make_core_model
from repro.revoker import BackgroundRevoker, EpochCounter, SoftwareRevoker
from repro.rtos import InterruptLatencyMonitor
from repro.workloads.alloc_bench import (
    TABLE4_SIZES,
    format_table4,
    overhead_series,
    read_table4,
    run_cell,
    sweep_cells,
)
from repro.workloads.coremark import run_coremark, run_kernel_profile, table3

#: The first lines of ``bench_output_tables.txt``.
TABLES_HEADER = (
    "Section-7 reproduced tables and figures\n"
    "Regenerate with: make refresh NAME=tables\n"
)
BANNER = "=" * 72

Block = Tuple[str, str]

CORES = (CoreKind.FLUTE, CoreKind.IBEX)

# Section titles, in file order.
COMPILER_FIXES = (
    "Ablation: the two compiler bugs of section 7.2 "
    "(paper: numbers are worst-case pending fixes)"
)
GRANULE = (
    "Ablation: revocation granule size (section 3.3.1) — "
    "bitmap SRAM vs padding for 256 x 20-byte allocations"
)
QUARANTINE = (
    "Ablation: quarantine threshold (section 5.1) — software revoker, "
    "4096 x 64-byte alloc/free"
)
BATCH_WINDOW = (
    "Ablation: software revoker batch size (section 3.3.2) — "
    "worst-case interrupts-off window vs full-sweep cost (256 KiB heap)"
)
PEEPHOLE = "Ablation: peephole optimizer (register reuse of just-stored values)"
ENCODING = "Section 3.2.3 / 3.3.1: encoding precision and overheads"
FIGURE2 = "Figure 2: the compressed permission formats (all 64 6-bit words)"
FIGURE = {
    CoreKind.FLUTE: "Figure 5: allocator benchmark results on Flute "
    "(overhead vs Baseline)",
    CoreKind.IBEX: "Figure 6: allocator benchmark results on Ibex "
    "(overhead vs Baseline)",
}
IOT = "Section 7.2.3: end-to-end IoT application"
ENERGY = "Energy: complete memory safety vs the PMP status quo"
TEMPORAL_COST = "End-to-end cost of temporal safety (15 s windows)"
NET_SCALE = "Section 7.2.3 at scale: zero-copy narrowing vs per-layer copies"
NET_LATENCY = "Zero-copy per-packet latency (driver edge -> app dispatch)"
WORST_WINDOW = (
    "Section 2.1: worst-case interrupts-off window under full temporal "
    "safety (software revoker, batch = 64 granules)"
)
BATCH_BOUND = "Section 3.3.2: the batch size bounds the critical section"
TABLE2 = "Table 2: area and power costs for variants of Ibex"
TIMING = "Timing: critical path per variant"
TABLE3 = "Table 3: CoreMark results for our two cores"
ATTRIBUTION = "Table 3 attribution (Ibex): per-kernel overhead"
TABLE4 = {
    core: f"Table 4 ({core.value}): cycles to allocate 1 MiB at different "
    "sizes (256 KiB total below 2 KiB)"
    for core in CORES
}


# ----------------------------------------------------------------------
# Measurements: one parallel task each
# ----------------------------------------------------------------------


def compiler_fixes() -> List[Block]:
    """How much of the CoreMark overhead the two compiler bugs cost."""
    rows = []
    for core in CORES:
        base = run_coremark(core, "rv32e", iterations=1)
        for fixed in (False, True):
            result = run_coremark(
                core, "cheriot+filter", iterations=1, fixed_compiler=fixed
            )
            overhead = 100 * (result.cycles - base.cycles) / base.cycles
            rows.append((
                core.value,
                "fixed" if fixed else "as-submitted",
                f"{result.cycles:,}",
                f"{overhead:.2f}%",
            ))
    return [(COMPILER_FIXES, format_table(
        ["core", "compiler", "cycles", "overhead vs rv32e"], rows
    ))]


def revocation_granule() -> List[Block]:
    """Bitmap SRAM vs allocation padding across granule sizes (§3.3.1)."""
    rows = []
    for granule in (8, 16, 32, 64):
        mm = default_memory_map()
        bus = SystemBus()
        bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
        rmap = RevocationMap(mm.heap.base, mm.heap.size, granule_bytes=granule)
        epoch = EpochCounter()
        heap = CheriHeap(
            bus, mm.heap, rmap, make_roots().memory,
            TemporalSafetyMode.HARDWARE,
            hardware_revoker=BackgroundRevoker(bus, rmap, epoch), epoch=epoch,
        )
        for _ in range(256):
            heap.free(heap.malloc(20))
        rows.append((
            f"{granule} B",
            f"{rmap.bitmap_bytes:,} B",
            f"{100 * rmap.bitmap_bytes / mm.heap.size:.2f}%",
            f"{heap.stats.fragmentation_padding:,} B",
        ))
    return [(GRANULE, format_table(
        ["granule", "bitmap SRAM", "SRAM overhead", "padding"], rows
    ))]


def quarantine_threshold() -> List[Block]:
    """Sweep frequency vs total cycles at a small size (§5.1)."""
    rows = []
    heap_size = default_memory_map().heap.size
    for fraction in (0.125, 0.25, 0.5):
        system = System.build(
            core=CoreKind.IBEX,
            mode=TemporalSafetyMode.SOFTWARE,
            quarantine_threshold=int(heap_size * fraction),
        )
        system.reset_cycles()
        for _ in range(4096):
            system.free(system.malloc(64))
        rows.append((
            f"{fraction:.3f} x heap",
            f"{system.allocator.stats.revocation_passes}",
            f"{system.core_model.cycles:,}",
        ))
    return [(QUARANTINE, format_table(["threshold", "sweeps", "cycles"], rows))]


def revoker_batch_size() -> List[Block]:
    """The software sweep's interrupts-off window vs its batch (§3.3.2)."""
    mm = default_memory_map()
    rows = []
    for batch in (16, 64, 256, 1024):
        bus = SystemBus()
        bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
        rmap = RevocationMap(mm.heap.base, mm.heap.size)
        core = make_core_model(CoreKind.IBEX, load_filter_enabled=True)
        revoker = SoftwareRevoker(bus, rmap, core_model=core, batch_granules=batch)
        _, cycles = revoker.sweep(mm.heap.base, mm.heap.top)
        window = core.sweep_cycles_software(batch * 8)
        rows.append((batch, f"{window:,}", f"{cycles:,}"))
    return [(BATCH_WINDOW, format_table(
        ["batch (granules)", "interrupts-off window (cycles)", "sweep total"],
        rows,
    ))]


def peephole_optimizer() -> List[Block]:
    """-O0-style spills vs the peephole's register reuse."""
    rows = []
    for core in CORES:
        for optimize in (False, True):
            result = run_coremark(
                core, "cheriot+filter", iterations=1, optimize=optimize
            )
            rows.append((
                core.value,
                "peephole" if optimize else "spill-everything",
                f"{result.instructions:,}",
                f"{result.cycles:,}",
            ))
    return [(PEEPHOLE, format_table(
        ["core", "codegen", "instructions", "cycles"], rows
    ))]


def encoding_precision() -> List[Block]:
    """§3.2.3: precise up to 511 B; ~1/2^9 vs 1/2^3 fragmentation."""
    frag9 = average_fragmentation(9, min_length=512)
    frag3 = average_fragmentation(3, min_length=8)
    rule9 = rule_of_thumb_fragmentation(9)
    rule3 = rule_of_thumb_fragmentation(3)
    return [(ENCODING, format_table(
        ["quantity", "measured", "paper"],
        [
            ("largest always-precise object", f"{max_precise_length(9)} B",
             "511 B"),
            ("avg fragmentation, 9-bit T/B", f"{frag9 * 100:.3f}%",
             f"~{rule9 * 100:.2f}% (1/2^9)"),
            ("avg fragmentation, 3-bit T/B", f"{frag3 * 100:.2f}%",
             f"{rule3 * 100:.1f}% (1/2^3)"),
            ("revocation bitmap SRAM overhead", f"{SRAM_OVERHEAD * 100:.2f}%",
             "1.56%"),
        ],
    ))]


def figure2() -> List[Block]:
    """Figure 2 from the implementation: every 6-bit permission word
    decoded, grouped by the format it decodes into."""
    groups: Dict[str, list] = {fmt: [] for fmt in compression.ALL_FORMATS}
    for word in range(64):
        perms = compression.decompress(word)
        groups[compression.classify(perms)].append(perms)
    rows = []
    for fmt, decoded in groups.items():
        implied = frozenset.intersection(*decoded) if decoded else frozenset()
        optional = frozenset().union(*decoded) - implied
        rows.append((
            fmt,
            len(decoded),
            " ".join(sorted(p.name for p in implied)) or "-",
            " ".join(sorted(p.name for p in optional)) or "-",
        ))
    return [(FIGURE2, format_table(
        ["format", "encodings", "implied perms", "optional perms"], rows
    ))]


def iot_endtoend() -> List[Block]:
    """§7.2.3: 60 s of the IoT application on Ibex (paper: 17.5 % load)."""
    app = IoTApplication(core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE)
    report = app.run(duration_ms=60_000)
    cheriot, pmp, extra = security_battery_cost(
        report.cpu_load, report.duration_ms / 1000
    )
    return [
        (IOT, format_table(["metric", "measured", "paper"], [
            ("CPU load", f"{report.cpu_load * 100:.1f}%", "17.5%"),
            ("idle fraction", f"{report.idle_fraction * 100:.1f}%", "82.5%"),
            ("duration", f"{report.duration_ms / 1000:.0f}s @ 20MHz",
             "60s @ 20MHz"),
            ("packets received", report.packets_received, "-"),
            ("JS ticks (10ms)", report.js_ticks, "6000"),
            ("JS objects allocated", report.js_objects_allocated, "-"),
            ("GC passes", report.gc_passes, "-"),
            ("revocation passes", report.revocation_passes, "-"),
        ])),
        (ENERGY, format_table(["core", "avg power", "CR2032 life"], [
            (pmp.variant_name, f"{pmp.average_mw:.4f} mW",
             f"{pmp.cr2032_days:.0f} days"),
            (cheriot.variant_name, f"{cheriot.average_mw:.4f} mW",
             f"{cheriot.cr2032_days:.0f} days"),
            ("security premium", f"+{extra * 100:.1f}%", ""),
        ])),
    ]


def temporal_safety_cost() -> List[Block]:
    """The IoT application under Baseline, Software and Hardware."""
    rows = []
    for mode in (
        TemporalSafetyMode.BASELINE,
        TemporalSafetyMode.SOFTWARE,
        TemporalSafetyMode.HARDWARE,
    ):
        # A tight quarantine (8 KiB) forces frequent revocation so the
        # revoker choice is visible within the 15 s window.
        app = IoTApplication(
            core=CoreKind.IBEX, mode=mode, quarantine_threshold=8 * 1024
        )
        report = app.run(duration_ms=15_000)
        rows.append((
            mode.value, f"{report.cpu_load * 100:.2f}%",
            report.revocation_passes,
        ))
    return [(TEMPORAL_COST, format_table(
        ["allocator mode", "CPU load", "revocation passes"], rows
    ))]


#: Sessions per net-scale point, and traffic rounds at each (the full
#: sweep to 2048 sessions is ``BENCH_net.json``).
NET_CONNS = (4, 64, 512)
NET_ROUNDS = {4: 8, 64: 4, 512: 2}


def net_scale() -> List[Block]:
    """§7.2.3: zero-copy narrowing vs a copy at every boundary."""
    rows, latency = [], []
    for connections in NET_CONNS:
        copy, zero = (
            run_point(zero_copy, connections, NET_ROUNDS[connections])
            for zero_copy in (False, True)
        )
        ratio = copy["per_packet_stack_cycles"] / zero["per_packet_stack_cycles"]
        rows.append((
            connections,
            f"{copy['per_packet_stack_cycles']:.0f}",
            f"{zero['per_packet_stack_cycles']:.0f}",
            f"{ratio:.2f}x",
            *(
                f"{p['counters']['allocs'] / p['counters']['packets_delivered']:.1f}"
                for p in (copy, zero)
            ),
            f"{zero['crossing_cycles_per_packet']:.0f}",
        ))
        latency.append((
            connections,
            zero["latency"]["p50"],
            zero["latency"]["p99"],
            zero["queues"]["ingress"]["high_watermark"],
        ))
    return [
        (NET_SCALE, format_table(
            ["sessions", "copy stack/pkt", "zerocopy stack/pkt", "speedup",
             "allocs/pkt copy", "allocs/pkt zc", "crossing cyc/pkt"],
            rows,
        )),
        (NET_LATENCY, format_table(
            ["sessions", "p50 cycles", "p99 cycles", "ingress hwm"], latency
        )),
    ]


def _latency_monitor(size: int, batch: int, total: int) -> InterruptLatencyMonitor:
    """The allocation benchmark under the software revoker, monitored."""
    system = System.build(core=CoreKind.IBEX, mode=TemporalSafetyMode.SOFTWARE)
    system.software_revoker.batch_granules = batch
    monitor = InterruptLatencyMonitor(system.csr, system.core_model)
    for _ in range(max(1, total // size)):
        system.free(system.malloc(size))
    return monitor


def worst_case_latency() -> List[Block]:
    """§2.1: the interrupts-off bound does not depend on the workload."""
    rows = []
    for size in (64, 4096, 128 * 1024):
        monitor = _latency_monitor(size, batch=64, total=1 << 19)
        rows.append((
            size_label(size),
            len(monitor.windows),
            f"{monitor.worst_case:,}",
            f"{monitor.total_disabled:,}",
        ))
    return [(WORST_WINDOW, format_table(
        ["alloc size", "critical sections", "worst window (cyc)",
         "total disabled (cyc)"],
        rows,
    ))]


def batch_bound() -> List[Block]:
    """§3.3.2: the revoker batch size is the latency knob."""
    rows = [
        (batch, f"{_latency_monitor(1024, batch, 1 << 18).worst_case:,}")
        for batch in (16, 64, 256)
    ]
    return [(BATCH_BOUND, format_table(
        ["batch (granules)", "worst window (cycles)"], rows
    ))]


def table2() -> List[Block]:
    return [
        (TABLE2, format_table2(area_power_table())),
        (TIMING, format_timing()),
    ]


def coremark_table3() -> List[Block]:
    return [(TABLE3, format_table(
        ["core", "config", "cycles", "score", "paper", "overhead %"],
        [
            (
                r["core"], r["config"], f"{r['cycles']:,}",
                f"{r['score_scaled']:.3f}", f"{r['paper_score']:.3f}",
                f"{r['overhead_pct']:.2f}",
            )
            for r in table3(iterations=2)
        ],
    ))]


def kernel_attribution() -> List[Block]:
    """Where the Ibex overhead lives, kernel by kernel."""
    profiles = {
        config: run_kernel_profile(CoreKind.IBEX, config, iterations=1)
        for config in ("rv32e", "cheriot", "cheriot+filter")
    }
    rows = []
    for kernel in ("list", "matrix", "state"):
        base = profiles["rv32e"][kernel]
        rows.append((
            kernel,
            f"{base:,}",
            *(
                f"+{100 * (profiles[config][kernel] - base) / base:.1f}%"
                for config in ("cheriot", "cheriot+filter")
            ),
        ))
    return [(ATTRIBUTION, format_table(
        ["kernel", "rv32e cycles", "+capabilities", "+load filter"], rows
    ))]


# ----------------------------------------------------------------------
# Views of the allocator sweep: ``sweep`` maps core -> its 104 cells
# ----------------------------------------------------------------------


def figure5(sweep) -> List[Block]:
    return [_figure(CoreKind.FLUTE, sweep)]


def figure6(sweep) -> List[Block]:
    return [_figure(CoreKind.IBEX, sweep)]


def _figure(core: CoreKind, sweep) -> Block:
    series = overhead_series(sweep[core])
    return (FIGURE[core], format_series(series, "cycles / baseline cycles per size"))


def table4(sweep) -> List[Block]:
    return [
        (TABLE4[core], format_table4(
            [r for r in sweep[core] if r.allocation_size in TABLE4_SIZES]
        ))
        for core in CORES
    ]


#: Every section producer, in file order, and the titles it renders
#: (so one drifted section can be re-rendered through its producer).
TITLES = {
    compiler_fixes: (COMPILER_FIXES,),
    revocation_granule: (GRANULE,),
    quarantine_threshold: (QUARANTINE,),
    revoker_batch_size: (BATCH_WINDOW,),
    peephole_optimizer: (PEEPHOLE,),
    encoding_precision: (ENCODING,),
    figure2: (FIGURE2,),
    figure5: (FIGURE[CoreKind.FLUTE],),
    figure6: (FIGURE[CoreKind.IBEX],),
    iot_endtoend: (IOT, ENERGY),
    temporal_safety_cost: (TEMPORAL_COST,),
    net_scale: (NET_SCALE, NET_LATENCY),
    worst_case_latency: (WORST_WINDOW,),
    batch_bound: (BATCH_BOUND,),
    table2: (TABLE2, TIMING),
    coremark_table3: (TABLE3,),
    kernel_attribution: (ATTRIBUTION,),
    table4: tuple(TABLE4[core] for core in CORES),
}
SECTIONS = tuple(TITLES)
#: The producers that render the allocator sweep instead of measuring.
FROM_SWEEP = (figure5, figure6, table4)


def _call(task):
    fn, *args = task
    return fn(*args)


def render(sections: Sequence[Callable] = SECTIONS, jobs: int = 1) -> str:
    """The banner-wrapped blocks of ``sections``, in order.

    One :func:`parallel_map` runs every measurement and, when a view of
    the allocator sweep is among ``sections``, every sweep cell: the
    measurements first, then the cells smallest size (most calls) first,
    so no long task starts last.
    """
    measured = [fn for fn in sections if fn not in FROM_SWEEP]
    cells = []
    if len(measured) < len(sections):
        cells = sorted(
            (cell for core in CORES for cell in sweep_cells(core)),
            key=lambda cell: cell[3],
        )
    results = parallel_map(
        _call, [(fn,) for fn in measured] + [(run_cell, c) for c in cells], jobs
    )
    blocks = dict(zip(measured, results))
    by_cell = dict(zip(cells, results[len(measured):]))
    sweep = {
        core: [by_cell[cell] for cell in sweep_cells(core)]
        for core in CORES if cells
    }
    return "".join(
        f"\n{BANNER}\n{title}\n{BANNER}\n{body}\n"
        for fn in sections
        for title, body in (fn(sweep) if fn in FROM_SWEEP else blocks[fn])
    )


def bench_tables(inputs: Inputs) -> str:
    """The committed ``bench_output_tables.txt``: every section."""
    return TABLES_HEADER + render(jobs=inputs.jobs)


# ----------------------------------------------------------------------
# Claims: the paper's shapes, read back from the text
# ----------------------------------------------------------------------


def read_sections(text: str) -> Dict[str, str]:
    """``{title: body}`` for every banner-wrapped section of ``text``."""
    parts = text.split(f"\n{BANNER}\n")
    return {
        title: body[:-1] for title, body in zip(parts[1::2], parts[2::2])
    }


def _number(cell: str) -> float:
    """The number in a printed cell: "4,096 B" -> 4096.0, "+17.7%" -> 17.7."""
    found = re.search(r"-?\d[\d,]*(?:\.\d+)?", cell)
    if found is None:
        raise ValueError(f"no number in {cell!r}")
    return float(found.group().replace(",", ""))


def _rows(body: str) -> List[Tuple[str, ...]]:
    return read_table(body)[1]


def _column(rows, index: int) -> List[float]:
    return [_number(row[index]) for row in rows]


def _by_name(rows, index: int) -> Dict[str, float]:
    """``{first cell: number in column index}``."""
    return {row[0]: _number(row[index]) for row in rows}


def _by_pair(rows, index: int) -> Dict[Tuple[str, str], float]:
    """``{(first cell, second cell): number in column index}``."""
    return {(row[0], row[1]): _number(row[index]) for row in rows}


def _curves(body: str) -> Dict[str, Dict[int, float]]:
    return {label: dict(points) for label, points in read_series(body).items()}


#: How each section reads back; the rest are :func:`format_table` text.
READERS = {
    **{title: _curves for title in FIGURE.values()},
    **{title: read_table4 for title in TABLE4.values()},
    TABLE2: read_table2,
}


@dataclass(frozen=True)
class Claim:
    """One paper shape, checked on each of its sections' text."""

    sections: Tuple[str, ...]
    statement: str
    #: The section as its reader returns it -> whether the shape holds.
    holds: Callable[[object], bool]


#: Table 2 as the paper prints it.
PAPER_GATES = [26988, 55905, 58110, 58431, 61422]
PAPER_POWER = [1.437, 2.16, 2.58, 2.58, 2.73]

KIB = 1024
BOTH_TABLE4 = tuple(TABLE4.values())
FLUTE_FIGURE, IBEX_FIGURE = FIGURE[CoreKind.FLUTE], FIGURE[CoreKind.IBEX]


def _by_row(rows, name) -> Tuple[str, ...]:
    """The row whose first cell is ``name``."""
    return {row[0]: row for row in rows}[name]


def _pct(rows, core, config) -> float:
    """Table 3's overhead % for one (core, config)."""
    return _by_pair(rows, 5)[(core, config)]


def _filter_share(rows, kernel) -> float:
    """Load-filter cycles as a share of the capability build's."""
    caps, filtered = (_number(c) for c in _by_row(rows, kernel)[2:])
    return (filtered - caps) / (100 + caps)


def _within(value: float, target: float, tolerance: float) -> bool:
    return abs(value - target) <= tolerance


CLAIMS = (
    # Ablations
    Claim((COMPILER_FIXES,), "the compiler fixes lower the overhead on both cores",
          lambda rows: all(
              _by_pair(rows, 3)[(core, "fixed")]
              < _by_pair(rows, 3)[(core, "as-submitted")]
              for core in ("flute", "ibex"))),
    Claim((GRANULE,), "bitmap SRAM shrinks as the granule grows",
          lambda rows: _column(rows, 1) == sorted(_column(rows, 1), reverse=True)),
    Claim((GRANULE,), "the coarsest granule pads more than the finest",
          lambda rows: _column(rows, 3)[-1] > _column(rows, 3)[0]),
    Claim((QUARANTINE,), "a larger quarantine threshold costs fewer cycles",
          lambda rows: _column(rows, 2) == sorted(_column(rows, 2), reverse=True)),
    Claim((BATCH_WINDOW,), "the interrupts-off window grows with the batch",
          lambda rows: _column(rows, 1) == sorted(_column(rows, 1))),
    Claim((BATCH_WINDOW,), "the full-sweep cost is flat across batches (within 2 %)",
          lambda rows: max(_column(rows, 2)) - min(_column(rows, 2))
          < 0.02 * max(_column(rows, 2))),
    Claim((PEEPHOLE,), "the peephole optimizer saves cycles on both cores",
          lambda rows: all(
              _by_pair(rows, 3)[(core, "peephole")]
              < _by_pair(rows, 3)[(core, "spill-everything")]
              for core in ("flute", "ibex"))),
    # Encoding precision (section 3.2.3)
    Claim((ENCODING,), "objects up to 511 B are always precise",
          lambda rows: _by_name(rows, 1)["largest always-precise object"] == 511),
    Claim((ENCODING,), "9-bit T/B fragmentation is under 0.5 %",
          lambda rows: _by_name(rows, 1)["avg fragmentation, 9-bit T/B"] < 0.5),
    Claim((ENCODING,), "3-bit T/B fragmentation is over 5 %",
          lambda rows: _by_name(rows, 1)["avg fragmentation, 3-bit T/B"] > 5),
    Claim((ENCODING,), "3-bit T/B fragments over 30x more than 9-bit",
          lambda rows: _by_name(rows, 1)["avg fragmentation, 3-bit T/B"]
          > 30 * _by_name(rows, 1)["avg fragmentation, 9-bit T/B"]),
    Claim((ENCODING,), "the revocation bitmap costs 1/64 of the heap",
          lambda rows: _by_row(rows, "revocation bitmap SRAM overhead")[1]
          == f"{100 / 64:.2f}%"),
    # Figure 2
    Claim((FIGURE2,),
          "the 64 words decode into six formats of 16, 8, 2, 6, 16 and 16",
          lambda rows: _column(rows, 1) == [16, 8, 2, 6, 16, 16]),
    # Figure 5 (Flute)
    Claim((FLUTE_FIGURE,), "Software overhead grows from 32 B to 128 KiB",
          lambda s: s["Software"][128 * KIB] > s["Software"][32]),
    Claim((FLUTE_FIGURE,), "Software overhead is over 20x at 128 KiB",
          lambda s: s["Software"][128 * KIB] > 20),
    Claim((FLUTE_FIGURE,), "Hardware is cheaper than Software at every size",
          lambda s: all(y < s["Software"][x] for x, y in s["Hardware"].items())),
    Claim((FLUTE_FIGURE,), "Hardware (S) beats Baseline from 32 B to 256 B",
          lambda s: all(s["Hardware (S)"][x] < 1.0 for x in (32, 64, 128, 256))),
    Claim((FLUTE_FIGURE,), "Hardware (S) is under 1.02x at 512 B (the crossover)",
          lambda s: s["Hardware (S)"][512] < 1.02),
    Claim((FLUTE_FIGURE,), "Hardware (S) has crossed Baseline by 2 KiB",
          lambda s: s["Hardware (S)"][2 * KIB] > 1.0),
    Claim((FLUTE_FIGURE,),
          "the polling tail: Hardware costs more at 128 KiB than at 4 KiB",
          lambda s: s["Hardware"][128 * KIB] > s["Hardware"][4 * KIB]),
    # Figure 6 (Ibex)
    Claim((IBEX_FIGURE,), "Software (S) beats Baseline at 32 B",
          lambda s: s["Software (S)"][32] < 1.0),
    Claim((IBEX_FIGURE,), "Software (S) beats Baseline at 64 B",
          lambda s: s["Software (S)"][64] < 1.0),
    Claim((IBEX_FIGURE,), "Software overhead is over 20x at 128 KiB",
          lambda s: s["Software"][128 * KIB] > 20),
    Claim((IBEX_FIGURE,), "Hardware (S) is within 15 % of Baseline at 32 B",
          lambda s: s["Hardware (S)"][32] < 1.15),
    Claim((IBEX_FIGURE,), "Hardware (S) costs more than Hardware at 128 KiB",
          lambda s: s["Hardware (S)"][128 * KIB] > s["Hardware"][128 * KIB]),
    # End-to-end IoT application (section 7.2.3)
    Claim((IOT,), "CPU load is between 5 % and 35 %",
          lambda rows: 5 < _by_name(rows, 1)["CPU load"] < 35),
    Claim((IOT,), "60 s of 10 ms JS ticks is 6000 ticks",
          lambda rows: _by_name(rows, 1)["JS ticks (10ms)"] == 6000),
    Claim((IOT,), "packets were received",
          lambda rows: _by_name(rows, 1)["packets received"] > 0),
    Claim((IOT,), "JS objects were allocated",
          lambda rows: _by_name(rows, 1)["JS objects allocated"] > 0),
    Claim((ENERGY,), "the security premium is under 50 %",
          lambda rows: _by_name(rows, 1)["security premium"] < 50),
    Claim((TEMPORAL_COST,), "Baseline load is at most Hardware load",
          lambda rows: _by_name(rows, 1)["baseline"] <= _by_name(rows, 1)["hardware"]),
    Claim((TEMPORAL_COST,), "Hardware load is at most Software load",
          lambda rows: _by_name(rows, 1)["hardware"] <= _by_name(rows, 1)["software"]),
    Claim((TEMPORAL_COST,), "Software load is under 90 %",
          lambda rows: _by_name(rows, 1)["software"] < 90),
    # The receive chain at scale
    Claim((NET_SCALE,),
          "copying costs over 1.8x the zero-copy stack cycles at every scale",
          lambda rows: all(_number(r[1]) > 1.8 * _number(r[2]) for r in rows)),
    Claim((NET_SCALE,),
          "copying allocates over 3x as often per packet at every scale",
          lambda rows: all(_number(r[4]) > 3 * _number(r[5]) for r in rows)),
    Claim((NET_SCALE,),
          "crossing cycles per packet halve from the smallest to the largest scale",
          lambda rows: _column(rows, 6)[-1] < _column(rows, 6)[0] / 2),
    # The real-time bound (sections 2.1 and 3.3.2)
    Claim((WORST_WINDOW,),
          "the worst interrupts-off window is the same at every size",
          lambda rows: len(set(_column(rows, 2))) == 1),
    Claim((BATCH_BOUND,), "the worst window grows with the batch",
          lambda rows: _by_name(rows, 1)["16"] < _by_name(rows, 1)["64"]
          < _by_name(rows, 1)["256"]),
    Claim((BATCH_BOUND,),
          "the worst window at 256 granules is 16x that at 16 (within 5 %)",
          lambda rows: _within(_by_name(rows, 1)["256"],
                               16 * _by_name(rows, 1)["16"],
                               0.05 * 16 * _by_name(rows, 1)["16"])),
    # Table 2
    Claim((TABLE2,), "gate counts match the paper exactly",
          lambda rows: [r.gates for r in rows] == PAPER_GATES),
    Claim((TABLE2,), "power is within 3 % of the paper",
          lambda rows: all(_within(r.power_mw, p, 0.03 * p)
                           for r, p in zip(rows, PAPER_POWER))),
    Claim((TABLE2,), "PMP16 costs 2.07x the baseline's gates (±0.01)",
          lambda rows: _within(rows[1].gate_ratio, 2.07, 0.01)),
    Claim((TABLE2,), "the background revoker build costs 2.28x (±0.01)",
          lambda rows: _within(rows[4].gate_ratio, 2.28, 0.01)),
    Claim((TABLE2,), "the load filter adds under 1 % of gates",
          lambda rows: (rows[3].gates - rows[2].gates) / rows[2].gates < 0.01),
    Claim((TABLE2,), "the background revoker build is under 10 % over PMP16",
          lambda rows: rows[4].gates / rows[1].gates < 1.10),
    Claim((TIMING,), "no variant lengthens the baseline's critical path",
          lambda rows: all(d <= _column(rows, 2)[0] for d in _column(rows, 2))),
    # Table 3
    Claim((TABLE3,), "Flute capability overhead is 5.73 % (±3)",
          lambda rows: _within(_pct(rows, "flute", "cheriot"), 5.73, 3.0)),
    Claim((TABLE3,), "the load filter is hidden in Flute's pipeline",
          lambda rows: _pct(rows, "flute", "cheriot+filter")
          == _pct(rows, "flute", "cheriot")),
    Claim((TABLE3,), "Ibex capability overhead is 13.18 % (±5)",
          lambda rows: _within(_pct(rows, "ibex", "cheriot"), 13.18, 5.0)),
    Claim((TABLE3,), "Ibex load-filter overhead is 21.28 % (±7)",
          lambda rows: _within(_pct(rows, "ibex", "cheriot+filter"), 21.28, 7.0)),
    Claim((TABLE3,), "capabilities cost Ibex more than Flute",
          lambda rows: _pct(rows, "ibex", "cheriot") > _pct(rows, "flute", "cheriot")),
    Claim((TABLE3,), "the load filter adds overhead on Ibex",
          lambda rows: _pct(rows, "ibex", "cheriot+filter")
          > _pct(rows, "ibex", "cheriot")),
    Claim((ATTRIBUTION,),
          "the load filter costs the list kernel a larger share than the state kernel",
          lambda rows: _filter_share(rows, "list") > _filter_share(rows, "state")),
    # Table 4
    Claim(BOTH_TABLE4, "Metadata costs more than Baseline at every size",
          lambda c: all(c[("Metadata", x)] > c[("Baseline", x)] for _, x in c)),
    Claim(BOTH_TABLE4, "Software costs more than Hardware at every size",
          lambda c: all(c[("Software", x)] > c[("Hardware", x)] for _, x in c)),
    Claim(BOTH_TABLE4, "Software costs over 20x Baseline at 128 KiB",
          lambda c: c[("Software", 128 * KIB)] > 20 * c[("Baseline", 128 * KIB)]),
    Claim(BOTH_TABLE4, "the stack high-water mark saves 5-35 % at 32 B",
          lambda c: 0.05 < 1 - c[("Baseline (S)", 32)] / c[("Baseline", 32)] < 0.35),
    Claim((TABLE4[CoreKind.IBEX],),
          "Hardware (S) costs more than Hardware at 128 KiB",
          lambda c: c[("Hardware (S)", 128 * KIB)] > c[("Hardware", 128 * KIB)]),
)


def tables_claims(text: str) -> List[str]:
    """Every claim on the text of ``bench_output_tables.txt``."""
    found = read_sections(text)
    problems: List[str] = []
    for claim in CLAIMS:
        for title in claim.sections:
            if title not in found:
                missing = f"missing section: {title}"
                if missing not in problems:
                    problems.append(missing)
                continue
            try:
                holds = claim.holds(READERS.get(title, _rows)(found[title]))
            except (ArithmeticError, LookupError, ValueError) as exc:
                problems.append(
                    f"{title}: unreadable for claim '{claim.statement}': "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            if not holds:
                problems.append(f"{title}: claim fails: {claim.statement}")
    return problems

"""The allocation microbenchmark (paper Table 4, Figures 5 and 6).

The benchmark allocates and frees a total of 1 MiB of heap memory at
allocation sizes from 32 bytes to 128 KiB (256 KiB below 2 KiB, see
:func:`_total_for`), through cross-compartment calls into the
allocator compartment, under four configurations:

* **Baseline** — no temporal safety at all (spatial safety only; no
  revocation bitmap, so also vulnerable to interior-pointer frees —
  the paper's footnote 8);
* **Metadata** — revocation bits updated on free, but no sweeps;
* **Software** — full quarantine with the software sweeping revoker;
* **Hardware** — full quarantine with the background hardware revoker.

Each configuration runs with and without the stack high-water mark
(the ``(S)`` variants).  Results are mechanistic cycle counts from the
core models; overheads relative to Baseline reproduce the shapes of
Figures 5 (Flute) and 6 (Ibex).  Both figures and Table 4 are views of
one sweep: 13 sizes x 8 configurations per core (:func:`sweep_cells`),
one independent :func:`run_cell` per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.allocator import TemporalSafetyMode
from repro.analysis.reporting import parse_size, size_label
from repro.machine import System
from repro.pipeline import CoreKind

#: Total bytes allocated+freed per run (the paper's 1 MiB).
TOTAL_BYTES = 1 << 20
#: The paper's allocation size sweep: 32 B to 128 KiB, doubling.
ALLOCATION_SIZES = tuple(32 << i for i in range(13))
#: The sizes Table 4 prints; Figures 5 and 6 plot them all.
TABLE4_SIZES = (32, 1024, 32 * 1024, 128 * 1024)

#: Configuration order as presented in Table 4.
CONFIGURATIONS = (
    TemporalSafetyMode.BASELINE,
    TemporalSafetyMode.METADATA,
    TemporalSafetyMode.SOFTWARE,
    TemporalSafetyMode.HARDWARE,
)


@dataclass(frozen=True)
class AllocBenchResult:
    """One cell of Table 4."""

    core: CoreKind
    mode: TemporalSafetyMode
    hwm: bool
    allocation_size: int
    iterations: int
    cycles: int
    revocation_passes: int

    @property
    def label(self) -> str:
        suffix = " (S)" if self.hwm else ""
        return f"{self.mode.value.capitalize()}{suffix}"

    @property
    def cycles_per_iteration(self) -> float:
        return self.cycles / max(1, self.iterations)


def run_alloc_bench(
    core: CoreKind,
    mode: TemporalSafetyMode,
    hwm: bool,
    allocation_size: int,
    total_bytes: int = TOTAL_BYTES,
) -> AllocBenchResult:
    """Run one configuration cell: alloc/free ``total_bytes`` worth.

    Every ``malloc``/``free`` is a cross-compartment call from the main
    thread into the allocator compartment, so the measured cycles
    include the switcher, stack zeroing (HWM-bounded or not), allocator
    work, revocation-bit painting, freed-memory zeroing and any
    revocation sweeps the configuration triggers.
    """
    system = System.build(core=core, mode=mode, hwm_enabled=hwm)
    iterations = max(1, total_bytes // allocation_size)
    system.reset_cycles()
    passes_before = system.allocator.stats.revocation_passes
    for _ in range(iterations):
        cap = system.malloc(allocation_size)
        system.free(cap)
    return AllocBenchResult(
        core=core,
        mode=mode,
        hwm=hwm,
        allocation_size=allocation_size,
        iterations=iterations,
        cycles=system.core_model.cycles,
        revocation_passes=system.allocator.stats.revocation_passes - passes_before,
    )


def _total_for(size: int) -> int:
    """Bytes allocated and freed by one sweep cell.

    256 KiB below 2 KiB, the paper's 1 MiB from 2 KiB: the small sizes
    make thousands of calls either way, and each size is normalised
    against its own Baseline, so the overhead ratios do not depend on
    the total.
    """
    return TOTAL_BYTES if size >= 2048 else TOTAL_BYTES // 4


#: One sweep cell: (core, mode, hwm, allocation size).
Cell = Tuple[CoreKind, TemporalSafetyMode, bool, int]


def sweep_cells(core: CoreKind) -> List[Cell]:
    """One core's 104 cells: every size x configuration, Table 4 order."""
    return [
        (core, mode, hwm, size)
        for size in ALLOCATION_SIZES
        for mode in CONFIGURATIONS
        for hwm in (False, True)
    ]


def run_cell(cell: Cell) -> AllocBenchResult:
    """Run one sweep cell (a pure function of the cell)."""
    core, mode, hwm, size = cell
    return run_alloc_bench(core, mode, hwm, size, _total_for(size))


def overhead_series(
    results: List[AllocBenchResult],
) -> "Dict[str, List[Tuple[int, float]]]":
    """Figures 5/6: per-configuration overhead relative to Baseline.

    Returns ``{config_label: [(size, overhead_ratio), ...]}`` where
    overhead_ratio is ``cycles / baseline_cycles`` at the same size
    (baseline = no temporal safety, no HWM).
    """
    baseline: Dict[int, int] = {}
    for result in results:
        if result.mode is TemporalSafetyMode.BASELINE and not result.hwm:
            baseline[result.allocation_size] = result.cycles
    series: Dict[str, List[Tuple[int, float]]] = {}
    for result in results:
        base = baseline.get(result.allocation_size)
        if base is None or base == 0:
            continue
        series.setdefault(result.label, []).append(
            (result.allocation_size, result.cycles / base)
        )
    for values in series.values():
        values.sort()
    return series


def format_table4(results: List[AllocBenchResult]) -> str:
    """Render one core's results as the paper's table shape."""
    sizes = sorted({r.allocation_size for r in results})
    labels: List[str] = []
    for r in results:
        if r.label not in labels:
            labels.append(r.label)
    by_key = {(r.label, r.allocation_size): r for r in results}
    header = f"{'Size':>8s} | " + " | ".join(f"{label:>14s}" for label in labels)
    lines = [header, "-" * len(header)]
    for size in sizes:
        cells = []
        for label in labels:
            result = by_key.get((label, size))
            cells.append(f"{result.cycles:>14,}" if result else f"{'-':>14s}")
        lines.append(f"{size_label(size):>8s} | " + " | ".join(cells))
    return "\n".join(lines)


def read_table4(text: str) -> "Dict[Tuple[str, int], int]":
    """Invert :func:`format_table4`: ``{(label, size): cycles}``."""
    header, _, *lines = text.splitlines()
    labels = [cell.strip() for cell in header.split("|")[1:]]
    cycles = {}
    for line in lines:
        size, *cells = (cell.strip() for cell in line.split("|"))
        for label, cell in zip(labels, cells):
            if cell != "-":
                cycles[(label, parse_size(size))] = int(cell.replace(",", ""))
    return cycles

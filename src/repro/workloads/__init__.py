"""Benchmark workloads: the CoreMark workalike and the allocation sweep."""

from .alloc_bench import (
    ALLOCATION_SIZES,
    CONFIGURATIONS,
    TOTAL_BYTES,
    AllocBenchResult,
    format_table4,
    overhead_series,
    run_alloc_bench,
    run_cell,
    sweep_cells,
)
from .coremark import (
    PAPER_BASELINE_SCORE,
    PAPER_TABLE3,
    CoreMarkResult,
    build_coremark_module,
    run_coremark,
    run_kernel_profile,
    table3,
)

__all__ = [
    "ALLOCATION_SIZES",
    "AllocBenchResult",
    "CONFIGURATIONS",
    "CoreMarkResult",
    "PAPER_BASELINE_SCORE",
    "PAPER_TABLE3",
    "TOTAL_BYTES",
    "build_coremark_module",
    "format_table4",
    "overhead_series",
    "run_cell",
    "run_coremark",
    "run_kernel_profile",
    "sweep_cells",
    "table3",
]

"""Plain-text rendering for the reproduced tables and figures.

The benchmark harness is console-first (this is an embedded-systems
artifact): tables print as aligned text and the figures print as ASCII
series, one line per configuration, so ``pytest benchmarks/`` output is
directly comparable with the paper's tables and figure shapes.

:func:`bench_tables` regenerates the committed
``bench_output_tables.txt``: each benchmark module runs in its own
``pytest`` subprocess with ``PYTHONHASHSEED=0`` and its tables
redirected to a private file (``REPRO_BENCH_TABLES``), and the files
are merged under a fixed header in sorted module order — so the bytes
are identical for any job count, with no timestamp and no
completion-order interleaving.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.artifact import Inputs, parallel_map

#: Never merged into the tables: its output is host wall-clock, which
#: changes run to run (``BENCH_simspeed.json`` records it instead).
HOST_TIMED_MODULES = ("bench_simspeed.py",)

#: Per-module wall-clock budget.  The slowest module finishes in well
#: under a minute; anything past this is a hang, not a slow benchmark.
MODULE_TIMEOUT = 900.0

#: The first two lines of ``bench_output_tables.txt``.  They are part
#: of the committed bytes, so the regenerate hint changes only with an
#: intentional refresh of the tables.
TABLES_HEADER = (
    "Section-7 reproduced tables and figures\n"
    "Regenerate with: make bench [PARALLEL=N]\n"
)


class BenchModuleError(Exception):
    """Benchmark modules that failed or hung while regenerating tables."""


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], indent: str = ""
) -> str:
    """Align a list of rows under headers."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return indent + "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
    lines = [fmt(headers), indent + "-" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_series(
    series: "Dict[str, List[Tuple[int, float]]]",
    title: str,
    value_label: str = "overhead vs baseline",
    width: int = 40,
) -> str:
    """Render {label: [(x, y), ...]} as aligned rows with spark bars.

    The x axis is the allocation size; each configuration prints one row
    per size with a proportional bar — enough to eyeball the crossovers
    the paper's Figures 5 and 6 show.
    """
    lines = [title]
    all_values = [y for points in series.values() for _, y in points]
    if not all_values:
        return title + " (no data)"
    peak = max(all_values)
    for label in series:
        lines.append(f"  {label}:")
        for x, y in series[label]:
            bar = "#" * max(1, int(width * y / peak))
            size = f"{x}B" if x < 1024 else f"{x // 1024}KiB"
            lines.append(f"    {size:>8s} {y:7.3f}x {bar}")
    lines.append(f"  ({value_label}; bar full scale = {peak:.2f}x)")
    return "\n".join(lines)


def size_label(nbytes: int) -> str:
    """32 -> "32B", 131072 -> "128KiB"."""
    if nbytes < 1024:
        return f"{nbytes}B"
    if nbytes < 1024 * 1024:
        return f"{nbytes // 1024}KiB"
    return f"{nbytes // (1024 * 1024)}MiB"


def bench_modules(bench_dir: str) -> List[str]:
    """The benchmark modules whose tables are merged, in merge order."""
    return [
        name
        for name in sorted(os.listdir(bench_dir))
        if name.startswith("bench_")
        and name.endswith(".py")
        and name not in HOST_TIMED_MODULES
    ]


def _run_module(task: "Tuple[str, str]") -> "Tuple[bool, str]":
    """Run one benchmark module: (True, its tables) or (False, why not)."""
    root, module = task
    rerun = (
        f"reproduce alone: PYTHONPATH=src python -m pytest "
        f"benchmarks/{module} -q"
    )
    with tempfile.TemporaryDirectory(prefix="bench-tables-") as scratch:
        tables = os.path.join(scratch, "tables")
        env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            REPRO_BENCH_TABLES=tables,
            PYTHONPATH=os.path.join(root, "src"),
        )
        cmd = [
            sys.executable, "-m", "pytest", os.path.join("benchmarks", module),
            "--benchmark-disable", "-q", "-p", "no:cacheprovider",
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=root, env=env, capture_output=True, text=True,
                timeout=MODULE_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return False, (
                f"{module}: timed out after {MODULE_TIMEOUT:.0f} s and was "
                f"killed\n  {rerun}"
            )
        if proc.returncode != 0:
            excerpt = (proc.stdout + proc.stderr).rstrip().splitlines()[-25:]
            return False, "\n".join(
                [f"{module}: FAILED (exit {proc.returncode})"]
                + [f"  {line}" for line in excerpt]
                + [f"  {rerun}"]
            )
        with open(tables) as fh:
            return True, fh.read()


def merge_tables(root: str, modules: Sequence[str], jobs: int = 1) -> str:
    """Run ``modules`` (on ``jobs`` workers) and merge their tables."""
    results = parallel_map(
        _run_module, [(root, module) for module in modules], jobs
    )
    failures = [text for ok, text in results if not ok]
    if failures:
        raise BenchModuleError("\n".join(failures))
    return (
        TABLES_HEADER
        + "Modules: " + ", ".join(m[: -len(".py")] for m in modules) + "\n"
        + "".join(text for _, text in results)
    )


def bench_tables(inputs: Inputs) -> str:
    """The committed ``bench_output_tables.txt``: every module's tables."""
    bench_dir = os.path.join(inputs.root, "benchmarks")
    return merge_tables(inputs.root, bench_modules(bench_dir), inputs.jobs)

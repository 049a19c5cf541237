"""Plain-text rendering for the reproduced tables and figures.

The benchmark harness is console-first (this is an embedded-systems
artifact): tables print as aligned text and the figures print as ASCII
series, one line per configuration, so ``bench_output_tables.txt`` is
directly comparable with the paper's tables and figure shapes.

Each renderer has a reader beside it that parses its text back, at the
precision it prints: the paper-shape claims on the committed file
(:mod:`repro.analysis.tables`) read the text, not the measurements.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Sequence, Tuple

Series = Dict[str, List[Tuple[int, float]]]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Align a list of rows under headers."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
    lines = [fmt(headers), "-" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def read_table(text: str) -> "Tuple[List[str], List[Tuple[str, ...]]]":
    """Invert :func:`format_table`: ``(headers, rows)``, cells as text.

    Cells are right-aligned, so each header's last character marks its
    column's right edge (headers must be non-empty, with no double
    spaces; cells must not start or end with a space).
    """
    header, _, *lines = text.splitlines()
    spans = list(re.finditer(r"\S+(?: \S+)*", header))
    edges = [0] + [span.end() for span in spans]
    rows = [
        tuple(line[start:end].strip() for start, end in zip(edges, edges[1:]))
        for line in lines
    ]
    return [span.group() for span in spans], rows


def format_series(
    series: Series,
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
            lines.append(f"    {size_label(x):>8s} {y:7.3f}x {bar}")
    lines.append(f"  ({value_label}; bar full scale = {peak:.2f}x)")
    return "\n".join(lines)


def read_series(text: str) -> Series:
    """Invert :func:`format_series`: ``{label: [(x, y), ...]}``, y to
    the three decimals it prints."""
    series: Series = {}
    for line in text.splitlines()[1:-1]:
        if line.startswith("    "):
            size, value = line.split()[:2]
            series[label].append((parse_size(size), float(value[:-1])))
        else:
            label = line.strip()[:-1]
            series[label] = []
    return series


def size_label(nbytes: int) -> str:
    """32 -> "32B", 131072 -> "128KiB"."""
    if nbytes < 1024:
        return f"{nbytes}B"
    if nbytes < 1024 * 1024:
        return f"{nbytes // 1024}KiB"
    return f"{nbytes // (1024 * 1024)}MiB"


def parse_size(label: str) -> int:
    """Invert :func:`size_label`: "128KiB" -> 131072."""
    for unit, scale in (("MiB", 1 << 20), ("KiB", 1 << 10), ("B", 1)):
        if label.endswith(unit):
            return int(label[: -len(unit)]) * scale
    raise ValueError(f"not a size label: {label!r}")

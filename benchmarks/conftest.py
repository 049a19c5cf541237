"""Shared benchmark configuration.

Every benchmark prints the reproduced table/figure (visible with
``pytest benchmarks/ --benchmark-only -s`` and in the captured output)
and asserts the paper's *shape* — orderings, crossovers, rough factors —
rather than absolute numbers.
"""

import os

import pytest


def emit(title: str, body: str) -> None:
    """Print a reproduced artifact with a recognisable banner.

    When ``REPRO_BENCH_TABLES`` names a file, the artifact is also
    appended there — :func:`repro.analysis.reporting.bench_tables`
    points each worker at its own file and merges them in module order,
    so the combined ``bench_output_tables.txt`` is byte-identical
    however many workers ran.
    """
    banner = "=" * 72
    block = f"\n{banner}\n{title}\n{banner}\n{body}\n"
    print(block)
    path = os.environ.get("REPRO_BENCH_TABLES")
    if path:
        with open(path, "a") as fh:
            fh.write(block)

"""The benchmark tables' reproducibility contract.

The ``tables`` entry of the artifact table regenerates
``bench_output_tables.txt`` by fanning benchmark modules out to worker
subprocesses; the merged file must be byte-identical whether one
worker ran or many — sorted module order, private per-worker table
files, no timestamps, no wall-clock-dependent interleaving.  Uses the
two fastest deterministic modules so the test stays cheap; ``make
check`` compares the full suite with the committed file.
"""

import os

from repro.analysis.reporting import merge_tables

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
MODULES = ("bench_encoding_precision.py", "bench_table2_area_power.py")


def test_parallel_output_byte_identical_to_serial():
    serial = merge_tables(ROOT, MODULES, jobs=1)
    parallel = merge_tables(ROOT, MODULES, jobs=2)
    assert parallel == serial
    # The tables actually made it into the file (not a trivially-empty
    # equality) and the header is the deterministic one.
    assert serial.startswith("Section-7 reproduced tables")
    assert serial.count("=" * 72) >= 4


def test_unknown_module_rejected(artifacts, capsys):
    assert artifacts.main(["check", "bench_does_not_exist"]) == 2
    assert "no such artifact: bench_does_not_exist" in capsys.readouterr().err

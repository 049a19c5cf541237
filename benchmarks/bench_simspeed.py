"""Simulator speed harness: how fast the simulator itself runs.

Unlike the other benchmarks (which reproduce the paper's *architectural*
numbers), this one measures host wall-clock for the decode-once/
execute-many executor and pins its two load-bearing properties:

* the pre-decoded fast path is decisively faster than the interpretive
  reference path on the same program, and
* both paths retire the *same* architectural instruction count — the
  speedup is pure host-time, never a semantic shortcut.

The ``simspeed`` entry of ``tools/artifacts.py`` records the same
workloads to ``BENCH_simspeed.json`` and gates ``make check`` on them.
"""

from repro.analysis.reporting import format_table
from repro.analysis.simspeed import (
    SEED_BASELINE,
    measure_alu_loop,
    measure_mem_loop,
    measure_table3_iter1,
)
from repro.isa import Tier
from conftest import emit


def test_simulator_speed(benchmark):
    results = {}

    def workloads():
        results["alu_loop"] = measure_alu_loop()
        results["mem_loop"] = measure_mem_loop()
        results["table3_iter1"] = measure_table3_iter1()

    benchmark.pedantic(workloads, rounds=1, iterations=1)

    body = format_table(
        ["workload", "seconds", "MIPS"],
        [
            (
                name,
                f"{r['seconds']:.3f}",
                f"{r['mips']:.3f}" if "mips" in r else "-",
            )
            for name, r in results.items()
        ],
    )
    body += (
        f"\n\nseed baseline: table3_iter1 "
        f"{SEED_BASELINE['table3_iter1_seconds']:.3f}s, "
        f"alu_loop {SEED_BASELINE['alu_loop_mips']:.3f} MIPS"
    )
    emit("Simulator speed (host wall-clock)", body)

    # Generous floors: an order of magnitude below current numbers, so
    # only a real collapse (not shared-machine noise) fails them.
    assert results["alu_loop"]["mips"] > 0.03
    assert results["table3_iter1"]["seconds"] < 30.0


def test_predecode_speedup_same_semantics(benchmark):
    fast = {}

    def run_fast():
        fast.update(measure_alu_loop(count=100_000))

    benchmark.pedantic(run_fast, rounds=1, iterations=1)
    interp = measure_alu_loop(count=100_000, tier=Tier.INTERP)

    speedup = interp["seconds"] / fast["seconds"]
    emit(
        "Pre-decoded vs interpretive executor (ALU loop)",
        format_table(
            ["path", "seconds", "MIPS", "instructions"],
            [
                ("interpretive", f"{interp['seconds']:.3f}",
                 f"{interp['mips']:.3f}", interp["instructions"]),
                ("pre-decoded", f"{fast['seconds']:.3f}",
                 f"{fast['mips']:.3f}", fast["instructions"]),
            ],
        )
        + f"\n\nspeedup: {speedup:.2f}x",
    )

    # Identical architectural work — the differential tests check full
    # state equality; here the retire counts must already agree.
    assert fast["instructions"] == interp["instructions"]
    # The tentpole criterion is >=2x end-to-end; the dispatch-bound ALU
    # loop shows more.  1.5x leaves room for shared-machine noise.
    assert speedup > 1.5

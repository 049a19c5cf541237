"""One regeneration of one workload, in a fresh process.

Started by ``perfbench/run.py``, one process per regeneration, so every
run starts with empty caches (the assembled-image cache and the JIT code
cache included), as a user regenerating a result does::

    python perfbench/child.py --workload net_2048 --seed 1 --mode plain

Prints ``PERFBENCH-READY`` on stdout just before the first timed op, so
the parent can time set-up from outside, and one JSON result line once
the result has been checked.  The host's speed is sampled throughout
(``hostspeed.py``); the result carries the sampler's scale and the
seconds it took, which every reported time excludes.  ``--mode`` is
``plain`` (nothing wrapped),
``probe`` (only ``CPU.run`` wrapped, for the execution-tier mix) or
``traced`` (every layer entry point wrapped; see ``tracing.py``).

Each workload has three phases: ``inputs`` makes the inputs from the
seed (load generation is not the program's time), ``setup`` imports the
program and does what a public constructor can do up front, and ``run``
is the timed phase, which also checks the result.  Every workload uses
the public API only and keeps the mix of the paper result it
regenerates; the run lengths below are the benchmark's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from hostspeed import HostSpeedSampler, peak_rss_kib  # noqa: E402

READY = "PERFBENCH-READY"

#: net_2048: sessions, traffic rounds and fault rates (net-check's).
NET_SESSIONS = 2048
NET_ROUNDS = 1
NET_CORRUPT_RATE = 0.02
NET_REORDER_RATE = 0.02
#: ``loadgen.drive``'s retry budget for a refused submit.
NET_MAX_RETRIES = 64

#: alloc_table4: bench_table4_alloc's sizes.  The total bytes per cell
#: are cut at the two small sizes; 1 KiB still triggers a revocation
#: pass, 32 B does not (so there Software equals Hardware).
ALLOC_SIZES = (32, 1024, 32 * 1024, 128 * 1024)
ALLOC_TOTAL_BYTES = {32: 1 << 15, 1024: 1 << 17}
ALLOC_TOTAL_BYTES_LARGE = 1 << 20

#: coremark_table3: iterations per configuration (the committed table's).
COREMARK_ITERATIONS = 2

#: iot_app: simulated device time, and the paper's measured CPU load.
IOT_DURATION_MS = 20_000
IOT_TICK_MS = 10
PAPER_CPU_LOAD = 0.175


#: Per-layer metrics read from the NetPipeline reports.
NET_LAYER_METRICS = (
    "iot.submit.refused",
    "iot.accept_ratio",
    "iot.stack_cycles_per_pkt.zerocopy",
    "iot.stack_cycles_per_pkt.copy",
    "iot.crossing_cycles_per_pkt",
)


class Outcome:
    """What one timed phase produced, with its self-checks."""

    def __init__(self) -> None:
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.sim_cycles = 0
        #: Simulated results and their error against the paper.
        self.sim = {}
        #: Per-layer counts that only the workload can read; 0 where
        #: the workload has no such layer.
        self.per_layer = dict.fromkeys(NET_LAYER_METRICS, 0)
        #: Everything simulated; hashed into the run's digest.
        self.outputs = None

    def check(self, ops: int, checks) -> None:
        """A group of ``(ok, message)`` checks covering ``ops`` ops.

        Any failure in the group marks all of its ops failed.
        """
        messages = [message for ok, message in checks if not ok]
        if messages:
            self.failed += ops
            self.failures.extend(messages)


# ---------------------------------------------------------------------------
# net_2048
# ---------------------------------------------------------------------------


def inputs_net(seed: int):
    from repro.iot.loadgen import NetLoadGen

    gen = NetLoadGen(
        range(1, NET_SESSIONS + 1),
        seed=seed,
        corrupt_rate=NET_CORRUPT_RATE,
        reorder_rate=NET_REORDER_RATE,
    )
    return gen, [gen.frames_for_round(r) for r in range(NET_ROUNDS)]


def setup_net(inputs):
    from repro.iot.sessions import NetPipeline

    gen, rounds = inputs
    pipelines = []
    for zero_copy in (True, False):
        pipeline = NetPipeline(zero_copy=zero_copy)
        pipeline.establish_many(gen.conn_ids)
        pipelines.append(pipeline)
    return gen, rounds, pipelines


def _replay(pipeline, rounds) -> "tuple[int, int]":
    """``loadgen.drive``'s loop over pre-generated frames.

    Returns (accepted submits, refused submits).
    """
    accepted = refused = 0
    for frames in rounds:
        for conn_id, wire in frames:
            for _ in range(NET_MAX_RETRIES):
                if pipeline.submit(conn_id, wire):
                    accepted += 1
                    break
                refused += 1
                pipeline.pump()
            else:
                raise RuntimeError("ingress ring wedged despite pumping")
        pipeline.pump()
    pipeline.drain()
    return accepted, refused


def run_net(state) -> Outcome:
    gen, rounds, pipelines = state
    accepted = refused = 0
    for pipeline in pipelines:
        a, r = _replay(pipeline, rounds)
        accepted += a
        refused += r

    out = Outcome()
    reports = [pipeline.report() for pipeline in pipelines]
    expected = gen.expected_delivered
    for pipeline, report in zip(pipelines, reports):
        counters = report["counters"]
        mode = report["mode"]
        out.attempted += expected
        out.ops += counters["packets_delivered"]
        out.sim_cycles += report["steady_cycles"]
        # net_bench.run_point's four self-checks.
        out.check(expected, [
            (got == want, f"{mode}: {name} {got} != {want}")
            for name, got, want in (
                ("delivered", counters["packets_delivered"], expected),
                ("payload bytes", counters["payload_bytes_delivered"],
                 gen.expected_payload_bytes),
                ("corrupt drops", counters["dropped_corrupt"],
                 gen.injected_corrupt),
                ("out-of-order drops", counters["dropped_out_of_order"],
                 gen.injected_reorder),
            )
        ])
        out.sim[mode] = {
            "per_packet_cycles": report["per_packet_cycles"],
            "per_packet_stack_cycles": report["per_packet_stack_cycles"],
            "crossing_cycles_per_packet":
                report["crossing_cycles_per_packet"],
        }
    out.outputs = {"frames": gen.frames_emitted, "reports": reports}
    zero, copy = reports
    out.per_layer = dict(zip(NET_LAYER_METRICS, (
        refused,
        accepted / (accepted + refused),
        zero["per_packet_stack_cycles"],
        copy["per_packet_stack_cycles"],
        zero["crossing_cycles_per_packet"],
    )))
    return out


# ---------------------------------------------------------------------------
# alloc_table4
# ---------------------------------------------------------------------------


def setup_alloc(inputs):
    from repro.workloads.alloc_bench import run_alloc_bench

    return run_alloc_bench


def run_alloc(run_alloc_bench) -> Outcome:
    from repro.pipeline import CoreKind
    from repro.workloads.alloc_bench import CONFIGURATIONS

    out = Outcome()
    results = []
    for core in (CoreKind.FLUTE, CoreKind.IBEX):
        for size in ALLOC_SIZES:
            total = ALLOC_TOTAL_BYTES.get(size, ALLOC_TOTAL_BYTES_LARGE)
            row = [
                run_alloc_bench(core, mode, hwm, size, total)
                for mode in CONFIGURATIONS
                for hwm in (False, True)
            ]
            results.extend(row)
            # bench_table4_alloc's shape assertions, per (core, size) row.
            by = {r.label: r for r in row}
            base, meta = by["Baseline"].cycles, by["Metadata"].cycles
            soft, hard = by["Software"], by["Hardware"]
            where = f"{core.value} {size} B"
            checks = [
                (meta > base, f"{where}: Metadata <= Baseline"),
                (
                    soft.cycles > hard.cycles if soft.revocation_passes
                    else soft.cycles >= hard.cycles,
                    f"{where}: Software vs Hardware",
                ),
            ]
            if size == 128 * 1024:
                checks.append((soft.cycles > 20 * base,
                               f"{where}: Software <= 20x Baseline"))
            out.check(sum(2 * r.iterations for r in row), checks)

    for r in results:
        out.attempted += 2 * r.iterations
        out.ops += 2 * r.iterations
        out.sim_cycles += r.cycles
    out.outputs = [
        (r.core.value, r.mode.value, r.hwm, r.allocation_size, r.iterations,
         r.cycles, r.revocation_passes)
        for r in results
    ]
    out.sim = {
        "cells": len(results),
        "revocation_passes": sum(r.revocation_passes for r in results),
    }
    return out


# ---------------------------------------------------------------------------
# coremark_table3
# ---------------------------------------------------------------------------


def setup_coremark(inputs):
    from repro.workloads.coremark import table3

    return table3


def run_coremark(table3) -> Outcome:
    rows = table3(iterations=COREMARK_ITERATIONS)

    out = Outcome()
    by = {(r["core"], r["config"]): r for r in rows}
    for r in rows:
        out.attempted += r["instructions"]
        out.ops += r["instructions"]
        out.sim_cycles += r["cycles"]
    pairs = [
        ((("flute", c), ("ibex", c)), f"{c}: CRC differs across cores")
        for c in ("rv32e", "cheriot", "cheriot+filter")
    ] + [
        (((core, "cheriot"), (core, "cheriot+filter")),
         f"{core}: cheriot CRC != cheriot+filter CRC")
        for core in ("flute", "ibex")
    ]
    for (a, b), message in pairs:
        out.check(by[a]["instructions"] + by[b]["instructions"],
                  [(by[a]["crc"] == by[b]["crc"], message)])
    out.outputs = rows
    out.sim = {
        f"{r['core']}/{r['config']}": {
            "score_scaled": r["score_scaled"],
            "paper_score": r["paper_score"],
            "error": (r["score_scaled"] - r["paper_score"])
            / r["paper_score"],
        }
        for r in rows
    }
    return out


# ---------------------------------------------------------------------------
# iot_app
# ---------------------------------------------------------------------------


def setup_iot(inputs):
    from repro.allocator import TemporalSafetyMode
    from repro.iot.app import IoTApplication
    from repro.pipeline import CoreKind

    return IoTApplication(core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE)


def run_iot(app) -> Outcome:
    from dataclasses import asdict

    report = app.run(duration_ms=IOT_DURATION_MS)

    out = Outcome()
    ticks = IOT_DURATION_MS // IOT_TICK_MS
    out.attempted = ticks
    out.ops = report.js_ticks
    out.sim_cycles = report.busy_cycles
    # bench_iot_endtoend's checks.
    out.check(ticks, [
        (0.05 < report.cpu_load < 0.35,
         f"CPU load {report.cpu_load:.4f} outside (0.05, 0.35)"),
        (report.js_ticks == ticks, f"{report.js_ticks} ticks != {ticks}"),
        (report.packets_received > 0, "no packets received"),
        (sum(report.led_final) == 1, f"LEDs lit: {report.led_final}"),
    ])
    out.outputs = asdict(report)
    out.sim = {
        "cpu_load": report.cpu_load,
        "paper_cpu_load": PAPER_CPU_LOAD,
        "error": (report.cpu_load - PAPER_CPU_LOAD) / PAPER_CPU_LOAD,
    }
    return out


def _no_inputs(seed: int):
    return None


#: name -> (inputs, setup, run)
WORKLOADS = {
    "net_2048": (inputs_net, setup_net, run_net),
    "alloc_table4": (_no_inputs, setup_alloc, run_alloc),
    "coremark_table3": (_no_inputs, setup_coremark, run_coremark),
    "iot_app": (_no_inputs, setup_iot, run_iot),
}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _peak_rss_mib(sampler: HostSpeedSampler) -> float:
    """Peak resident memory of the regeneration, the sampler's excluded."""
    return (peak_rss_kib() - sampler.own_rss_kib) / 1024


def _layer_metrics(tracer, probe, builds, out: Outcome,
                   work_share: float) -> dict:
    """Every per-layer metric of a traced run, by name.

    Self times are cut by ``work_share``, the share of the traced window
    the sampler's handler did not take: it interrupts whichever span is
    open, so each span holds that share of its time on average.
    """
    import tracing

    metrics = {}
    for key in tracing.SPAN_KEYS:
        metrics[f"{key}.calls"] = tracer.calls.get(key, 0)
        metrics[f"{key}.self_s"] = tracer.self_s.get(key, 0.0) * work_share
    metrics["mem.rw.bytes"] = tracer.nbytes.get("mem.rw", 0)
    metrics["mem.fill.bytes"] = tracer.nbytes.get("mem.fill", 0)
    metrics["switcher.calls_per_op"] = (
        tracer.calls.get("switcher.call", 0) / max(1, out.ops)
    )
    metrics["py.gc.collections"] = tracer.calls.get(tracing.GC_KEY, 0)
    metrics["py.gc.self_s"] = (
        tracer.self_s.get(tracing.GC_KEY, 0.0) * work_share
    )
    metrics["unattributed.self_s"] = tracer.unattributed_s() * work_share
    metrics["alloc.revocation_passes"] = sum(
        heap.revocation_passes for heap, _, _ in builds
    )
    metrics["revoker.words_visited"] = sum(
        soft.words_visited + hard.words_loaded for _, soft, hard in builds
    )
    tiers = probe.tiers()
    retired = tiers["interp"] + tiers["fused"] + tiers["jit"]
    metrics["isa.instr.interp"] = tiers["interp"]
    metrics["isa.instr.fused"] = tiers["fused"]
    metrics["isa.instr.jit"] = tiers["jit"]
    metrics["isa.jit_share"] = tiers["jit"] / retired if retired else 0.0
    metrics["isa.jit.compiles"] = tiers["compiles"]
    metrics["isa.jit.guard_bails"] = tiers["guard_bails"]
    metrics["isa.block.translations"] = tiers["translations"]
    metrics["core.sim_cycles"] = out.sim_cycles
    metrics["core.sim_cycles_per_op"] = out.sim_cycles / max(1, out.ops)
    metrics.update(out.per_layer)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "probe", "traced"),
                        default="plain")
    parser.add_argument("--spans", default="",
                        help="traced mode: write the kept spans here")
    args = parser.parse_args(argv)
    make_inputs, setup, run = WORKLOADS[args.workload]
    sampler = HostSpeedSampler()
    sampler.start()

    tracer = probe = None
    builds = []
    if args.mode != "plain":
        import tracing

        probe = tracing.TierProbe()
        probe.install()
        if args.mode == "traced":
            tracer = tracing.Tracer()
            tracing.install(tracer, builds)

    inputs = make_inputs(args.seed)
    if tracer is not None:
        tracer.start()
        window_paused_s = sampler.paused_s
    state = setup(inputs)
    setup_paused_s = sampler.paused_s
    setup_mark = sampler.mark()
    print(READY, flush=True)
    start = time.perf_counter()
    out = run(state)
    timed_s = time.perf_counter() - start - (sampler.paused_s - setup_paused_s)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "timed_s": timed_s,
        "ops": out.ops,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "digest": _digest(out.outputs),
        "sim_cycles": out.sim_cycles,
        "sim": out.sim,
        "peak_rss_mib": _peak_rss_mib(sampler),
    }
    if probe is not None:
        result["tiers"] = probe.tiers()
    if tracer is not None:
        tracer.stop()
        work_share = 1 - (sampler.paused_s - window_paused_s) / tracer.window_s
        result["layers"] = _layer_metrics(tracer, probe, builds, out,
                                          work_share)
        result["trace_window_s"] = tracer.window_s * work_share
    sampler.stop()
    result["scale"] = sampler.scale()
    result["setup_scale"] = sampler.scale(setup_mark)
    result["paused_setup_s"] = setup_paused_s
    result["paused_s"] = sampler.paused_s
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

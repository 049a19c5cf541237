#!/usr/bin/env python3
"""Host-time benchmark: what it costs to regenerate the paper's results.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload net_2048 --seed 1 --seconds 20 --trace 0

Runs one workload (see ``perfbench/README.md``) closed-loop: one
regeneration at a time, each in a fresh process (``child.py``), for
``--seconds`` seconds, and reports the medians.  Host seconds are
normalised to a reference host speed: each regeneration process samples
the host's speed while it runs (``hostspeed.py``) and reports the scale
its times are multiplied by.  Shared hosts drift by more than any useful
bound within seconds; the samples drift with them.  With ``--trace 0``
the processes run unwrapped and the end-to-end metrics of
``BENCHMARK.json`` are reported; with ``--trace 1`` traced processes
alternate with processes that wrap only ``CPU.run``, and the per-layer
metrics are reported, including the tracing overhead.

Every regeneration checks its own result.  Its simulated outputs are
hashed; the hash must be the same in every process of a run, and in
every run of the same source tree (kept in ``.perfbench/digests.json``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
STATE_DIR = os.path.join(ROOT, ".perfbench")
LEDGER = os.path.join(STATE_DIR, "digests.json")

WORKLOADS = ("net_2048", "alloc_table4", "coremark_table3", "iot_app")
#: Workloads whose inputs depend on the seed; the others regenerate a
#: fixed paper configuration and must give one digest for every seed.
SEEDED = frozenset({"net_2048"})

READY = "PERFBENCH-READY"
#: No new regeneration starts once this much of the run has passed, and
#: a regeneration still running at KILL_AFTER seconds is killed.
LAST_START_S = 120.0
KILL_AFTER_S = 170.0

#: Per-layer metrics in host seconds, normalised like the end-to-end ones.
SECONDS_SUFFIX = ".self_s"


class BenchError(Exception):
    """The benchmark cannot run here (no repository, no BENCHMARK.json)."""


def _load_spec() -> dict:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError(f"no repro package under {ROOT}/src")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _source_hash() -> str:
    """Hash of every Python source file of the program."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _run_child(workload: str, seed: int, mode: str, kill_at: float,
               spans: str = "") -> dict:
    """One regeneration in a fresh process, timed from outside."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed",
           str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, kill_at - spawned), proc.kill)
    watchdog.start()
    ready = finished = None
    last = ""
    try:
        for line in proc.stdout:
            if line.strip() == READY:
                ready = time.perf_counter()
            elif line.strip():
                last = line
        finished = time.perf_counter()
        proc.stdout.close()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"{mode} {workload} process exited with {code}")
    result = json.loads(last)
    result["setup_s"] = ready - spawned - result["paused_setup_s"]
    result["wall_s"] = finished - spawned - result["paused_s"]
    return result


def _check_ledger(key: str, digest: str) -> "str | None":
    """Record ``digest`` for ``key``; the digest it disagrees with, if any."""
    os.makedirs(STATE_DIR, exist_ok=True)
    try:
        with open(LEDGER) as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    known = ledger.setdefault(key, digest)
    if known == digest:
        tmp = LEDGER + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
        os.replace(tmp, LEDGER)
        return None
    return known


def _context() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.analysis.simspeed import host_speed_probe

    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "host_speed_probe_s": host_speed_probe(),
    }


def _median(values):
    """The median; an exact count stays a count."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _regenerate(args, modes) -> list:
    """Cycle through ``modes`` for ``--seconds``.

    A new cycle starts only if, at the pace of the cycles so far, it
    ends within ``--seconds``; the first always runs.  Each result's
    ``scale`` turns its host seconds into seconds on the reference host.
    """
    start = time.perf_counter()
    limit = min(args.seconds, LAST_START_S)
    spans = os.path.join(STATE_DIR, f"spans-{args.workload}.json")
    results = []
    cycles = 0
    while True:
        for mode in modes:
            results.append(_run_child(
                args.workload, args.seed, mode, start + KILL_AFTER_S,
                spans if mode == "traced" else "",
            ))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > limit:
            return results


def _verify(args, results, source_hash: str) -> "list[str]":
    """Cross-process checks; returns the problems found."""
    problems = []
    for r in results:
        problems += [f"{r['mode']}: {f}" for f in r["failures"]]
    digests = {r["digest"] for r in results}
    if len(digests) > 1:
        problems.append(f"simulated digest differs between processes: "
                        f"{sorted(digests)}")
    inputs = f"seed={args.seed}" if args.workload in SEEDED else "fixed"
    known = _check_ledger(
        f"{source_hash[:16]}/{args.workload}/{inputs}", results[0]["digest"]
    )
    if known is not None:
        problems.append(f"simulated digest {results[0]['digest'][:16]} != "
                        f"{known[:16]} from an earlier run of this source")
    tiers = {json.dumps(r["tiers"], sort_keys=True)
             for r in results if "tiers" in r}
    if len(tiers) > 1:
        problems.append(f"execution-tier mix changed under tracing: {tiers}")
    return problems


def _end_to_end(results) -> dict:
    # Set-up is scaled by the host speed sampled during set-up, the rest
    # of the process by the speed over the whole process.
    def setup_s(r):
        return r["setup_s"] * r["setup_scale"]

    return {
        "setup_s": _median(setup_s(r) for r in results),
        "wall_s": _median(
            setup_s(r) + (r["wall_s"] - r["setup_s"]) * r["scale"]
            for r in results
        ),
        "ops_per_s": _median(
            r["ops"] / (r["timed_s"] * r["scale"]) for r in results
        ),
        "peak_rss_mb": _median(r["peak_rss_mib"] for r in results),
    }


def _per_layer(results) -> dict:
    traced = [r for r in results if r["mode"] == "traced"]
    probed = [r for r in results if r["mode"] == "probe"]

    def value(r, name):
        v = r["layers"][name]
        return v * r["scale"] if name.endswith(SECONDS_SUFFIX) else v

    values = {
        name: _median(value(r, name) for r in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_ratio"] = (
        _median(r["timed_s"] * r["scale"] for r in traced)
        / _median(r["timed_s"] * r["scale"] for r in probed)
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = _load_spec()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    context = _context()
    source_hash = _source_hash()
    modes = ("probe", "traced") if args.trace else ("plain",)
    try:
        results = _regenerate(args, modes)
    except (RuntimeError, ValueError) as exc:
        # A regeneration that crashed measured nothing: every op failed.
        print(f"perfbench: FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    problems = _verify(args, results, source_hash)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if problems and not failed:
        failed = attempted
    values = _per_layer(results) if args.trace else _end_to_end(results)
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "processes": len(results),
        "source_hash": source_hash[:16],
        "digest": results[0]["digest"][:16],
        "sim_cycles": results[0]["sim_cycles"],
        "sim": results[0]["sim"],
        "context": context,
    }
    for r in results:
        print(f"perfbench process: {r['mode']:<6} setup {r['setup_s']:.4f} s"
              f"  timed {r['timed_s']:.4f} s  wall {r['wall_s']:.4f} s"
              f"  rss {r['peak_rss_mib']:.1f} MiB  scale {r['scale']:.4f}"
              " (host seconds net of the sampler; x scale = reported)")
    print("perfbench record: " + json.dumps(record, sort_keys=True))
    for problem in problems:
        print(f"perfbench: FAILED: {problem}")
    print(f"{'metric':<36} {'value':>16}  unit")
    for name in units:
        print(f"{name:<36} {values[name]:>16.6g}  {units[name]}")
    print(f"{'fail_ratio':<36} {failed / max(1, attempted):>16.6g}  ratio "
          f"({failed} of {attempted} ops failed)")

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

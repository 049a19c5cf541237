#!/usr/bin/env python3
"""Per-compartment cycle attribution and hot-PC report (``make profile``).

Usage (from the repository root)::

    PYTHONPATH=src python tools/profile_report.py [--kernel list]

Runs the reference telemetry workload (malloc/free churn + forced
revocation sweep + one Table-3 CoreMark kernel) on a telemetry-enabled
system and prints:

* the per-context cycle breakdown from the
  :class:`~repro.obs.profile.CycleAttributor` — every elapsed cycle
  lands in exactly one bucket, so the total must reconcile with
  ``CoreModel.cycles`` (the report says so, and exits non-zero if not);
* the hot-PC histogram from the retire-hook
  :class:`~repro.obs.profile.PCProfiler`;
* switcher/error-handler overhead counters from ``switcher.stats``.

The merged three-device hot-PC profile is the committed
``OBS_fleet_profile.json`` (``make refresh NAME=profile``); its gate
reports a drift as top-N hot-path churn.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.machine import CoreKind  # noqa: E402
from repro.obs import render_attribution, render_hot_pcs  # noqa: E402
from repro.obs.workload import (  # noqa: E402
    add_workload_arguments,
    at_least,
    run_traced_workload,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_workload_arguments(parser)
    parser.add_argument(
        "--top", type=at_least(1), default=10,
        help="hot PCs to show (default: 10)",
    )
    args = parser.parse_args(argv)

    result = run_traced_workload(
        core=CoreKind(args.core),
        rounds=args.rounds,
        kernel=args.kernel,
        iterations=args.iterations,
    )
    system = result["system"]
    profiler = result["profiler"]
    totals = system.obs.attributor.snapshot()
    core_cycles = system.core_model.cycles

    print(f"profile: core={args.core} kernel={args.kernel} rounds={args.rounds}")
    print()
    print("per-context cycle attribution:")
    print(render_attribution(totals, core_cycles=core_cycles))
    print()
    print(f"hot PCs (kernel phase, {profiler.retired:,} instructions retired):")
    print(render_hot_pcs(profiler, n=args.top))
    print()
    switcher = asdict(system.switcher.stats)
    print("switcher overhead (this run):")
    for key in sorted(switcher):
        print(f"  {key:<28} {switcher[key]:>12,}")
    print()
    spans = len(system.obs.tracer)
    print(f"spans recorded: {spans:,} (dropped: {system.obs.tracer.dropped:,})")

    if sum(totals.values()) != core_cycles:
        print("error: attribution does not reconcile with the core model")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Run the reference telemetry workload and export a Perfetto trace.

Usage (from the repository root)::

    PYTHONPATH=src python tools/trace_export.py [-o trace.json]
    PYTHONPATH=src python tools/trace_export.py --fleet [N] -o fleet-trace.json

The output is Chrome/Perfetto ``trace_event`` JSON: open it at
https://ui.perfetto.dev (or ``chrome://tracing``).  The trace covers a
malloc/free churn through the compartment switcher, a forced revocation
sweep, background hardware-revoker passes, and one Table-3 CoreMark
kernel — so compartment-switch, allocator and revoker spans all appear
on their tracks.

Without ``--fleet`` the trace is one device, the Perfetto *process*
``cheriot-sim`` with pid 1.  ``--fleet N`` runs the workload once per
device (kernel rotating through list/matrix/state; N defaults to the
three devices of the committed ``OBS_fleet_profile.json``) and folds
the N span sets into one trace: each device is its own process (pid
``i+1``, process name ``cheriot-sim/device-i``) with tids allocated
per device, so two devices exporting the same compartment track land
on separate rows — they can never collide.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.machine import CoreKind  # noqa: E402
from repro.obs.export import PROCESS_NAME, write_trace  # noqa: E402
from repro.obs.workload import (  # noqa: E402
    FLEET_KERNELS,
    FLEET_PROFILE_DEVICES,
    add_workload_arguments,
    at_least,
    run_fleet_workloads,
    run_traced_workload,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default="trace.json", help="output path (trace_event JSON)"
    )
    add_workload_arguments(parser)
    # A fleet picks each device's kernel itself, so an explicit --kernel
    # must be told from the default to be refused there.
    default_kernel = parser.get_default("kernel")
    parser.set_defaults(kernel=None)
    parser.add_argument(
        "--fleet", type=at_least(0), nargs="?", default=0,
        const=FLEET_PROFILE_DEVICES, metavar="N",
        help="merge N devices into one fleet trace (0: single device; "
        f"bare --fleet: {FLEET_PROFILE_DEVICES})",
    )
    args = parser.parse_args(argv)
    if args.fleet and args.kernel is not None:
        parser.error(
            "argument --kernel: not allowed with --fleet, where device i "
            f"profiles FLEET_KERNELS[i % {len(FLEET_KERNELS)}] "
            f"({', '.join(FLEET_KERNELS)})"
        )
    kernel = args.kernel or default_kernel
    core = CoreKind(args.core)

    if args.fleet:
        workloads = run_fleet_workloads(
            devices=args.fleet,
            core=core,
            rounds=args.rounds,
            iterations=args.iterations,
        )
        metadata = {
            "core": args.core,
            "devices": args.fleet,
            "kernels": [result["kernel"] for _, result in workloads],
        }
        over = f" over {args.fleet} devices"
    else:
        result = run_traced_workload(
            core=core,
            rounds=args.rounds,
            kernel=kernel,
            iterations=args.iterations,
        )
        workloads = [(PROCESS_NAME, result)]
        metadata = {
            "core": args.core,
            "kernel": kernel,
            "cycles": result["system"].core_model.cycles,
        }
        over = ""
    tracers = [(name, result["system"].obs.tracer) for name, result in workloads]
    spans = sum(len(tracer) for _, tracer in tracers)
    dropped = sum(tracer.dropped for _, tracer in tracers)
    metadata["spans_dropped"] = dropped
    count = write_trace(
        args.output,
        [(name, tracer.events()) for name, tracer in tracers],
        workloads[0][1]["system"].core_model.params.frequency_mhz,
        metadata,
    )
    print(
        f"wrote {count} events ({spans} spans{over}, "
        f"{dropped} dropped) to {args.output}"
    )
    print(f"open it at https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

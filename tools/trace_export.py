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

``--fleet N`` runs the workload once per device (kernel rotating
through list/matrix/state; N defaults to the three devices of the
committed ``OBS_fleet_profile.json``) and merges the N span sets into
one trace:
each device is its own Perfetto *process* (pid ``i+1``, process name
``cheriot-sim/device-i``) with tids allocated per device, so two
devices exporting the same compartment track land on separate rows —
they can never collide.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.machine import CoreKind  # noqa: E402
from repro.obs.export import write_fleet_trace  # noqa: E402
from repro.obs.workload import (  # noqa: E402
    FLEET_PROFILE_DEVICES,
    run_fleet_workloads,
    run_traced_workload,
)


def _device_count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {count}")
    return count


def _iterations(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be 1 or more, not {count}")
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default="trace.json", help="output path (trace_event JSON)"
    )
    parser.add_argument(
        "--core",
        choices=[kind.value for kind in CoreKind],
        default=CoreKind.IBEX.value,
        help="core timing model (default: ibex)",
    )
    parser.add_argument(
        "--kernel",
        choices=["list", "matrix", "state"],
        default="list",
        help="CoreMark kernel for the profiled phase (default: list)",
    )
    parser.add_argument(
        "--rounds", type=int, default=40, help="malloc/free rounds (default: 40)"
    )
    parser.add_argument(
        "--iterations", type=_iterations, default=1,
        help="kernel iterations (default: 1)",
    )
    parser.add_argument(
        "--fleet", type=_device_count, nargs="?", default=0,
        const=FLEET_PROFILE_DEVICES, metavar="N",
        help="merge N devices into one fleet trace (0: single device; "
        f"bare --fleet: {FLEET_PROFILE_DEVICES})",
    )
    args = parser.parse_args(argv)

    if args.fleet:
        return _fleet(args)

    result = run_traced_workload(
        core=CoreKind(args.core),
        rounds=args.rounds,
        kernel=args.kernel,
        iterations=args.iterations,
    )
    system = result["system"]
    count = system.obs.export_trace(
        args.output,
        metadata={
            "core": args.core,
            "kernel": args.kernel,
            "cycles": system.core_model.cycles,
            "spans_dropped": system.obs.tracer.dropped,
        },
    )
    print(
        f"wrote {count} events ({len(system.obs.tracer)} spans, "
        f"{system.obs.tracer.dropped} dropped) to {args.output}"
    )
    print(f"open it at https://ui.perfetto.dev")
    return 0


def _fleet(args) -> int:
    """The merged export: one Perfetto process per fleet device."""
    workloads = run_fleet_workloads(
        devices=args.fleet,
        core=CoreKind(args.core),
        rounds=args.rounds,
        iterations=args.iterations,
    )
    devices = [
        (name, result["system"].obs.tracer.events())
        for name, result in workloads
    ]
    frequency = workloads[0][1]["system"].obs.frequency_mhz
    spans = sum(len(result["system"].obs.tracer) for _, result in workloads)
    dropped = sum(
        result["system"].obs.tracer.dropped for _, result in workloads
    )
    count = write_fleet_trace(
        args.output,
        devices,
        frequency,
        metadata={
            "core": args.core,
            "devices": args.fleet,
            "kernels": [result["kernel"] for _, result in workloads],
            "spans_dropped": dropped,
        },
    )
    print(
        f"wrote {count} events ({spans} spans over {args.fleet} devices, "
        f"{dropped} dropped) to {args.output}"
    )
    print(f"open it at https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

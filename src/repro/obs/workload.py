"""The reference telemetry workload shared by tools and tests.

One recipe, two phases, every span category the exporter knows about:

1. **RTOS phase** — a malloc/free churn through the compartment
   switcher with a small quarantine threshold, so the trace records
   compartment-switch (``xcall``), allocator (``malloc``/``free``) and
   revoker (background hardware passes plus one forced blocking
   ``revocation-sweep``) spans.
2. **Kernel phase** — one Table-3 CoreMark kernel compiled by the
   in-repo compiler and executed on a CPU sharing the system's bus and
   core model, with the :class:`~repro.obs.profile.PCProfiler` riding
   the retire hook for the hot-PC histogram.  Kernel globals and stack
   are placed in the upper half of the code region, in two disjoint
   windows: program instructions are structural (never written to
   memory), so that SRAM is free real estate and the RTOS image stays
   untouched.

``tools/trace_export.py`` and ``tools/profile_report.py`` both run this
recipe (and take its knobs through :func:`add_workload_arguments`),
and :func:`fleet_profile` merges it across devices into the
committed ``OBS_fleet_profile.json``; the telemetry-off differential
test runs it twice (telemetry on and off) and asserts bit-identical
cycle/stat outcomes.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.allocator import TemporalSafetyMode
from repro.machine import CoreKind, System
from repro.memory import Region
from repro.workloads.coremark import boot, coremark_program

from .profile import PCProfiler, merge_profile_dicts, profile_to_dict

#: Offsets into the code region for the kernel phase's data and stack.
#: The code region is 256 KiB; compiled programs are a few KiB of
#: structural instructions, so the upper half is unused SRAM.  The
#: globals window is the 64 KiB below the stack, so ``cgp`` and ``csp``
#: cover disjoint ranges.
KERNEL_DATA_OFFSET = 0x20000
KERNEL_STACK_OFFSET = 0x30000
KERNEL_STACK_BYTES = 0x8000


def build_system(telemetry: bool, core: CoreKind = CoreKind.IBEX) -> System:
    """The workload's system: Ibex, hardware revoker, small quarantine
    threshold so revocation passes actually happen."""
    return System.build(
        core=core,
        mode=TemporalSafetyMode.HARDWARE,
        telemetry=telemetry,
        quarantine_threshold=8192,
    )


def run_alloc_phase(system: System, rounds: int = 40, size: int = 384) -> None:
    """Malloc/free churn through the switcher, ending in a forced sweep."""
    live = []
    for _ in range(rounds):
        live.append(system.malloc(size))
        if len(live) >= 8:
            system.free(live.pop(0))
    while live:
        system.free(live.pop())
    system.allocator.revoke_now()


def run_kernel_phase(
    system: System,
    kernel: str = "list",
    iterations: int = 1,
    profiler: Optional[PCProfiler] = None,
) -> int:
    """Run one CoreMark kernel on the system's bus and core model.

    Returns the cycles the kernel consumed.  The CPU shares the
    system's core model, so the tracer's clock keeps advancing and the
    attributor books the kernel under the root ``app`` context.
    """
    code = system.memory_map.code.base
    stack = Region("kernel-stack", code + KERNEL_STACK_OFFSET, KERNEL_STACK_BYTES)
    globals_ = Region(
        "kernel-globals",
        code + KERNEL_DATA_OFFSET,
        KERNEL_STACK_OFFSET - KERNEL_DATA_OFFSET,
    )
    program = coremark_program("cheriot", iterations, kernel, globals_.base)
    cpu = system.make_cpu()
    boot(cpu, program, code, stack, globals_)
    if profiler is not None:
        profiler.attach(cpu)
    before = system.core_model.cycles
    try:
        cpu.run(max_steps=50_000_000)
    finally:
        if profiler is not None:
            profiler.detach(cpu)
    return system.core_model.cycles - before


#: Kernel rotation for the fleet workload: device i profiles kernel
#: ``FLEET_KERNELS[i % 3]``, so a small fleet still covers every
#: Table-3 kernel in the merged exports.
FLEET_KERNELS = ("list", "matrix", "state")

#: Devices merged into ``OBS_fleet_profile.json`` and ``make fleet-trace``.
FLEET_PROFILE_DEVICES = 3


def fleet_device_name(index: int) -> str:
    """The Perfetto process name for fleet workload device ``index``."""
    return f"cheriot-sim/device-{index}"


def run_fleet_workloads(
    devices: int = FLEET_PROFILE_DEVICES,
    core: CoreKind = CoreKind.IBEX,
    rounds: int = 40,
    iterations: int = 1,
) -> list:
    """Run the traced workload once per fleet device, in device order.

    Returns ``[(name, result), ...]`` where ``result`` is a
    :func:`run_traced_workload` dict.  Device *i* profiles kernel
    ``FLEET_KERNELS[i % 3]``; everything else is identical, so the
    merged exports are a pure function of ``(devices, core, rounds,
    iterations)`` — which is what lets ``OBS_fleet_profile.json`` be a
    committed, byte-reproducible baseline.
    """
    return [
        (
            fleet_device_name(index),
            run_traced_workload(
                core=core,
                rounds=rounds,
                kernel=FLEET_KERNELS[index % len(FLEET_KERNELS)],
                iterations=iterations,
            ),
        )
        for index in range(devices)
    ]


def run_traced_workload(
    telemetry: bool = True,
    core: CoreKind = CoreKind.IBEX,
    rounds: int = 40,
    kernel: str = "list",
    iterations: int = 1,
) -> dict:
    """Build, run both phases, and return everything tools need."""
    system = build_system(telemetry, core)
    system.reset_cycles()
    profiler = PCProfiler(system.core_model) if telemetry else None
    run_alloc_phase(system, rounds=rounds)
    kernel_cycles = run_kernel_phase(
        system, kernel=kernel, iterations=iterations, profiler=profiler
    )
    return {
        "system": system,
        "profiler": profiler,
        "kernel": kernel,
        "kernel_cycles": kernel_cycles,
    }


def at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be {minimum} or more, not {value}"
            )
        return value

    return count


def add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    """Add :func:`run_traced_workload`'s knobs to a tool's parser:
    ``--core``, ``--kernel``, ``--rounds`` and ``--iterations``."""
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
        "--rounds", type=at_least(0), default=40,
        help="malloc/free rounds (default: 40)",
    )
    parser.add_argument(
        "--iterations", type=at_least(1), default=1,
        help="kernel iterations (default: 1)",
    )


def fleet_profile(inputs=None) -> dict:
    """The committed ``OBS_fleet_profile.json``: merged hot-PC histograms.

    Per-device histograms merge by integer addition, with PC keys
    namespaced by program image, so the profile is a pure function of
    the workload knobs.
    """
    return merge_profile_dicts(
        profile_to_dict(result["profiler"], image=f"traced-{result['kernel']}")
        for _, result in run_fleet_workloads(devices=FLEET_PROFILE_DEVICES)
    )

"""One simulated device's metric sample.

A *device* is a fresh :class:`~repro.machine.System` driven through
four phases, every one clocked in simulated cycles (never wall time):

1. **Allocation traffic** — a seeded malloc/free mix through the
   compartment switcher; each cross-compartment call's cycle cost
   becomes a latency sample, and the phase's op/cycle ratio the
   device's throughput.
2. **Tiered CPU kernel** — a seeded store/load loop on a real
   :class:`~repro.isa.CPU` built by :meth:`System.make_cpu` at the
   default ``Tier.FUSED``.  Cycle counts are bit-identical across every
   :class:`~repro.isa.Tier` (the differential suite's guarantee, which
   runs this kernel too), so the tier can never leak into the report.
3. **Revocation** — frees push chunks through quarantine, then a
   forced sweep measures the revoker's share of the device's cycles
   (the duty-cycle column).
4. **Network traffic** — a small zero-copy receive pipeline
   (:class:`repro.iot.sessions.NetPipeline` on its *own* fresh
   system, so phases 1–3 stay byte-identical to older reports) takes
   a few seeded rounds of multi-session traffic with corrupt/reorder
   faults injected.  The phase ships its flat counters and an
   already-folded per-packet latency sketch — never raw samples — and
   the fleet fold merges the devices' sketches.

Finally a per-device fault-campaign slice
(:func:`repro.faultinject.run_campaign` with the device seed) yields
the outcome tally; the fleet-level acceptance criterion is that the
summed ``escaped`` count is zero.

Everything is a pure function of ``(fleet_seed, device_id, knobs)``,
which is what makes run order invisible in the merged report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.allocator import TemporalSafetyMode
from repro.faultinject import run_campaign
from repro.isa import assemble
from repro.machine import System
from repro.obs.sketch import nearest_rank
from repro.pipeline import CoreKind

#: Mixes the device index into the fleet seed (Weyl constant — any odd
#: 32-bit multiplier works; fixed forever so committed results hold).
_SEED_STRIDE = 0x9E3779B1

#: Net-traffic phase shape: a handful of sessions and rounds is enough
#: to exercise sequencing, TLS, fault drops and the latency sketch per
#: device without dominating its runtime.
_NET_SESSIONS = 4
_NET_ROUNDS = 5
_NET_CORRUPT_RATE = 0.15
_NET_REORDER_RATE = 0.15

#: Allocation sizes the traffic phase draws from (all precisely
#: representable, so no device's numbers depend on encoding rounding).
_ALLOC_SIZES = (16, 24, 32, 48, 64, 96, 128, 192, 256)

#: The CPU kernel walks this much scratch SRAM in the code region's
#: upper half (nothing else touches it in a plain ``System.build``).
_KERNEL_CODE_OFFSET = 0x2_0000
_KERNEL_BUF_OFFSET = 0x3_0000
_KERNEL_BUF_SIZE = 256

#: The store/accumulate loop: iteration count patched per device.
_KERNEL_SOURCE = """\
    li a0, {iters}
    li a1, 0
loop:
    sw a1, 0(s0)
    lw a2, 0(s0)
    add a1, a1, a2
    addi a1, a1, 3
    cincaddrimm s0, s0, 4
    cgetaddr t0, s0
    li t1, {buf_top}
    bltu t0, t1, nowrap
    cincaddrimm s0, s0, -{buf_size}
nowrap:
    addi a0, a0, -1
    bnez a0, loop
    halt
"""


def device_seed(fleet_seed: int, device_id: int) -> int:
    """The per-device RNG seed: decorrelated, deterministic, stable."""
    return (fleet_seed ^ (device_id * _SEED_STRIDE)) & 0x7FFF_FFFF


@dataclass(frozen=True)
class DeviceSpec:
    """Everything needed to reproduce one device bit-for-bit."""

    device_id: int
    fleet_seed: int
    injections: int = 3
    alloc_ops: int = 12

    @property
    def seed(self) -> int:
        return device_seed(self.fleet_seed, self.device_id)


def _percentile(sorted_samples: List[int], q: float) -> int:
    """Nearest-rank percentile over a sorted sample list."""
    if not sorted_samples:
        return 0
    return sorted_samples[nearest_rank(q, len(sorted_samples)) - 1]


def latency_summary(samples: List[int]) -> Dict[str, object]:
    """The percentile block reported per device and fleet-wide."""
    ordered = sorted(samples)
    count = len(ordered)
    return {
        "count": count,
        "min": ordered[0] if ordered else 0,
        "p50": _percentile(ordered, 0.50),
        "p90": _percentile(ordered, 0.90),
        "p99": _percentile(ordered, 0.99),
        "max": ordered[-1] if ordered else 0,
        "mean": round(sum(ordered) / count, 2) if count else 0.0,
    }


def _run_net_phase(spec: DeviceSpec) -> dict:
    """The network-traffic phase: a seeded zero-copy pipeline slice.

    Runs on its own :class:`~repro.iot.sessions.NetPipeline` (and thus
    its own system), so the device's phase 1–3 numbers and RNG draws
    are untouched by this phase's existence.  Returns flat integer
    counters plus the per-packet latency sketch *state*, which
    :func:`repro.fleet.merge.fleet_rollup` merges fleet-wide.
    """
    from repro.iot.loadgen import NetLoadGen, drive
    from repro.iot.sessions import NetPipeline

    pipeline = NetPipeline(zero_copy=True)
    conn_ids = range(1, _NET_SESSIONS + 1)
    pipeline.establish_many(conn_ids)
    gen = NetLoadGen(
        conn_ids,
        seed=spec.seed,
        corrupt_rate=_NET_CORRUPT_RATE,
        reorder_rate=_NET_REORDER_RATE,
    )
    drive(pipeline, gen, rounds=_NET_ROUNDS)
    counters = pipeline.counters()
    return {
        "counters": {key: counters[key] for key in sorted(counters)},
        "latency": pipeline.latency.summary(),
        "latency_sketch": pipeline.latency.to_dict(),
    }


def run_device(spec: DeviceSpec) -> dict:
    """Run one device end to end; returns its deterministic sample."""
    rng = random.Random(spec.seed)
    system = System.build(core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE)
    core = system.core_model
    start = core.cycles
    latencies: List[int] = []

    # --- phase 1: cross-compartment allocation traffic ----------------
    live: List = []
    for _ in range(spec.alloc_ops):
        size = rng.choice(_ALLOC_SIZES)
        before = core.cycles
        cap = system.malloc(size)
        latencies.append(core.cycles - before)
        live.append(cap)
        if len(live) > 4:
            victim = live.pop(rng.randrange(len(live)))
            before = core.cycles
            system.free(victim)
            latencies.append(core.cycles - before)
    for cap in live:
        before = core.cycles
        system.free(cap)
        latencies.append(core.cycles - before)
    alloc_cycles = core.cycles - start
    alloc_calls = len(latencies)

    # --- phase 2: the tiered CPU kernel -------------------------------
    mm = system.memory_map
    code_base = mm.code.base + _KERNEL_CODE_OFFSET
    buf_base = mm.code.base + _KERNEL_BUF_OFFSET
    iters = 64 + rng.randrange(64)
    program = assemble(
        _KERNEL_SOURCE.format(
            iters=iters,
            buf_top=buf_base + _KERNEL_BUF_SIZE,
            buf_size=_KERNEL_BUF_SIZE,
        )
    )
    cpu = system.make_cpu()
    from repro.capability import make_roots

    roots = make_roots()
    cpu.load_program(program, code_base, pcc=roots.executable)
    cpu.regs.write(
        8, roots.memory.set_address(buf_base).set_bounds(_KERNEL_BUF_SIZE)
    )
    kernel_start = core.cycles
    cpu.run()
    kernel_cycles = core.cycles - kernel_start
    kernel_instrs = cpu.stats.instructions

    # --- phase 3: revocation sweep ------------------------------------
    sweep_start = core.cycles
    system.allocator.revoke_now()
    sweep_cycles = core.cycles - sweep_start

    total_cycles = core.cycles - start

    # --- phase 4: network traffic (its own fresh system) --------------
    net = _run_net_phase(spec)

    # --- the fault-campaign slice -------------------------------------
    campaign = run_campaign(total=spec.injections, seed=spec.seed)
    tally = campaign.tally()

    return {
        "device": spec.device_id,
        "seed": spec.seed,
        "cycles": total_cycles,
        "throughput": {
            "calls": alloc_calls,
            "cycles": alloc_cycles,
            "calls_per_kcycle": round(alloc_calls * 1000 / alloc_cycles, 4),
        },
        "latency": latency_summary(latencies),
        "latency_samples": latencies,
        "kernel": {
            "iterations": iters,
            "instructions": kernel_instrs,
            "cycles": kernel_cycles,
            "checksum": cpu.regs.read_int(11) & 0xFFFF_FFFF,
        },
        "revocation": {
            "sweep_cycles": sweep_cycles,
            "duty_cycle": round(sweep_cycles / total_cycles, 6),
        },
        "net": net,
        "faults": {
            "injections": campaign.total,
            "outcomes": tally,
            "detection_rate": round(campaign.detection_rate, 6),
            "escaped": tally["escaped"],
        },
    }

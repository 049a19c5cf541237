"""The fleet observability pipeline: samples -> blocks -> aggregate.

This module is the end-to-end path from one device's metric sample to
the fleet-wide aggregate the SLO engine judges:

1. :func:`device_telemetry` distils one device sample (the dict
   :func:`repro.fleet.device.run_device` returns) into a **telemetry
   block** — the mergeable unit of the whole pipeline: ``counters``
   are flat dotted-name integers, ``floors`` merge with ``min``
   (per-device minima like the throughput floor) and ``sketches`` are
   serialized :class:`~repro.obs.sketch.QuantileSketch` states;
2. :func:`merge_telemetry` folds blocks with the fleet-fold algebra
   (counters add, floors take the min, sketches merge per bin), which
   is commutative and associative with :func:`empty_telemetry` as
   identity — so *any* grouping of devices into shards folds to the
   identical aggregate;
3. :func:`fleet_rollup` computes the fleet aggregate from the shard
   results in one fold.

Everything in a block is derived from simulated cycles and seeded RNG
streams — no wall-clock value may enter (``tools/lint_determinism.py``
guards this file).
"""

from __future__ import annotations

from typing import Dict

from .sketch import QuantileSketch
from .registry import merge_values

#: Version tag of the rolled-up fleet aggregate shape.
AGGREGATE_SCHEMA = 1

#: The sketch every device feeds its cross-compartment call latencies
#: into; the SLO engine's latency-quantile rules query it.
LATENCY_SKETCH = "latency_cycles"

#: The sketch the device's network-traffic phase feeds per-packet
#: pipeline latencies (driver edge to application dispatch) into; the
#: SLO engine's net-packet-latency-quantile rule queries it.
NET_SKETCH = "net_packet_cycles"


class PipelineError(Exception):
    """Telemetry that cannot be folded."""


# ----------------------------------------------------------------------
# Telemetry blocks: the mergeable unit
# ----------------------------------------------------------------------


def empty_telemetry() -> dict:
    """The merge identity: a block with nothing in it."""
    return {"counters": {}, "floors": {}, "sketches": {}}


def device_telemetry(sample: dict) -> dict:
    """One device sample as a telemetry block, read from its fields."""
    counters: Dict[str, int] = {
        "devices": 1,
        "cycles": sample["cycles"],
        "calls": sample["throughput"]["calls"],
        "call_cycles": sample["throughput"]["cycles"],
        "kernel.instructions": sample["kernel"]["instructions"],
        "kernel.cycles": sample["kernel"]["cycles"],
        "revocation.sweep_cycles": sample["revocation"]["sweep_cycles"],
        "faults.injections": sample["faults"]["injections"],
        "faults.escaped": sample["faults"]["escaped"],
    }
    for outcome in sorted(sample["faults"]["outcomes"]):
        counters[f"faults.outcome.{outcome}"] = sample["faults"]["outcomes"][outcome]

    sketch = QuantileSketch()
    sketch.observe_many(sample.get("latency_samples", ()))
    sketches = {LATENCY_SKETCH: sketch.to_dict()}

    net = sample.get("net")
    if net is not None:
        # The net-traffic phase ships flat counters plus an already-
        # folded latency sketch (never raw samples) — both merge with
        # the same fleet-fold algebra as everything else.
        for key in sorted(net["counters"]):
            counters[f"net.{key}"] = net["counters"][key]
        sketches[NET_SKETCH] = net["latency_sketch"]

    return {
        "counters": counters,
        "floors": {
            "calls_per_kcycle": sample["throughput"]["calls_per_kcycle"],
        },
        "sketches": sketches,
    }


def merge_telemetry(a: dict, b: dict) -> dict:
    """Fold two telemetry blocks into a new one (the fleet-fold)."""
    for block in (a, b):
        extra = sorted(set(block) - {"counters", "floors", "sketches"})
        if extra:
            raise PipelineError(f"unknown telemetry block keys: {extra}")
    floors: Dict[str, float] = {}
    for key in sorted(set(a.get("floors", {})) | set(b.get("floors", {}))):
        values = [
            block["floors"][key]
            for block in (a, b)
            if key in block.get("floors", {})
        ]
        floors[key] = min(values)
    return {
        "counters": merge_values(a.get("counters", {}), b.get("counters", {})),
        "floors": floors,
        "sketches": merge_values(a.get("sketches", {}), b.get("sketches", {})),
    }


def shard_telemetry(shard_result: dict) -> dict:
    """The block for one shard result's devices."""
    telemetry = empty_telemetry()
    for device in shard_result.get("devices", []):
        telemetry = merge_telemetry(telemetry, device_telemetry(device))
    return telemetry


# ----------------------------------------------------------------------
# The final rollup
# ----------------------------------------------------------------------


def fleet_rollup(plan, shard_results: Dict[int, dict]) -> dict:
    """The fleet aggregate from shard results.

    ``plan`` needs ``devices`` and ``fingerprint()`` (duck-typed so
    this module never imports ``repro.fleet``).  Deterministic for any
    shard split because it is one big fleet-fold.
    """
    telemetry = empty_telemetry()
    for shard_id in sorted(shard_results):
        telemetry = merge_telemetry(
            telemetry, shard_telemetry(shard_results[shard_id])
        )

    counters = telemetry["counters"]
    cycles = counters.get("cycles", 0)
    calls = counters.get("calls", 0)
    call_cycles = counters.get("call_cycles", 0)
    sweep_cycles = counters.get("revocation.sweep_cycles", 0)
    reporting = counters.get("devices", 0)

    sketch_dict = telemetry["sketches"].get(
        LATENCY_SKETCH, QuantileSketch().to_dict()
    )
    sketch = QuantileSketch.from_dict(sketch_dict)
    net_sketch_dict = telemetry["sketches"].get(
        NET_SKETCH, QuantileSketch().to_dict()
    )
    net_sketch = QuantileSketch.from_dict(net_sketch_dict)

    return {
        "schema": AGGREGATE_SCHEMA,
        "fingerprint": plan.fingerprint(),
        "devices": {
            "planned": plan.devices,
            "reporting": reporting,
            # Always 0; kept so the committed aggregate keeps its
            # schema.
            "degraded": 0,
        },
        "counters": {key: counters[key] for key in sorted(counters)},
        "floors": {
            key: telemetry["floors"][key] for key in sorted(telemetry["floors"])
        },
        "latency_sketch": sketch.summary(),
        "sketch": sketch_dict,
        "net_latency": net_sketch.summary(),
        "net_sketch": net_sketch_dict,
        "derived": {
            "calls_per_kcycle": (
                round(calls * 1000 / call_cycles, 4) if call_cycles else 0.0
            ),
            "revocation_duty_cycle": (
                round(sweep_cycles / cycles, 6) if cycles else 0.0
            ),
            "degraded_fraction": 0.0,
        },
    }


"""Running one shard: a contiguous slice of the fleet's devices.

The shard layer is deliberately thin — devices are independent, so a
shard is just a loop.  The result dict carries the fleet seed of the
spec that produced it, so a merge can refuse results from another
plan.
"""

from __future__ import annotations

from typing import Dict

from repro.artifact import Inputs

from .device import DeviceSpec, run_device
from .plan import FleetPlan, ShardSpec


def run_shard(spec: ShardSpec) -> dict:
    """Run every device in ``spec``, in order; returns the shard result."""
    devices = [
        run_device(
            DeviceSpec(
                device_id=device_id,
                fleet_seed=spec.fleet_seed,
                injections=spec.injections_per_device,
                alloc_ops=spec.alloc_ops,
                trace_jit=spec.trace_jit,
            )
        )
        for device_id in spec.device_ids
    ]
    return {
        "shard": spec.shard_id,
        "fleet_seed": spec.fleet_seed,
        "devices": devices,
    }


def plan_results(plan: FleetPlan, inputs: Inputs) -> Dict[int, dict]:
    """Every shard result of ``plan``, computed once per artifact run.

    One serial in-process run of every shard, shared by every producer
    of the same artifact run — the fleet report and the SLO report fold
    the same shards.
    """
    key = ("fleet-shards", plan.fingerprint())
    if key not in inputs.cache:
        inputs.cache[key] = {
            spec.shard_id: run_shard(spec) for spec in plan.shards()
        }
    return inputs.cache[key]

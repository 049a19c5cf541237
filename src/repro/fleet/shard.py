"""Running one shard: a contiguous slice of the fleet's devices.

The shard layer is deliberately thin — devices are independent, so a
shard is just a loop with a heartbeat callback between devices.  The
result dict is what gets checkpointed; it carries the plan fingerprint
of the spec that produced it so a merge can refuse mixed-plan inputs.

Each completed device also folds into the shard's **cumulative
telemetry block** (:mod:`repro.obs.pipeline`), handed to the heartbeat
callback so the worker can piggyback it on the heartbeat file — the
streaming-shipment leg of the fleet observability pipeline.  The block
is derived purely from the device samples, so streaming it changes
nothing about what the shard computes or checkpoints.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.artifact import Inputs
from repro.obs.pipeline import device_telemetry, empty_telemetry, merge_telemetry

from .checkpoint import CheckpointStore
from .device import DeviceSpec, run_device
from .plan import FleetPlan, ShardSpec

#: Heartbeat callback: ``(device_id, devices_done, telemetry_block)``.
HeartbeatFn = Callable[[int, int, dict], None]


def run_shard(
    spec: ShardSpec,
    heartbeat: Optional[HeartbeatFn] = None,
) -> dict:
    """Run every device in ``spec``; returns the checkpointable result.

    ``heartbeat`` (if given) is called after each completed device with
    the device id, the number of devices finished so far, and the
    shard's cumulative telemetry block — the worker wires it to its
    heartbeat file so a supervisor can tell a slow shard from a wedged
    one *and* fold live fleet telemetry between harvests.
    """
    devices = []
    telemetry = empty_telemetry()
    for device_id in spec.device_ids:
        sample = run_device(
            DeviceSpec(
                device_id=device_id,
                fleet_seed=spec.fleet_seed,
                injections=spec.injections_per_device,
                alloc_ops=spec.alloc_ops,
                trace_jit=spec.trace_jit,
            )
        )
        devices.append(sample)
        telemetry = merge_telemetry(telemetry, device_telemetry(sample))
        if heartbeat is not None:
            heartbeat(device_id, len(devices), telemetry)
    return {
        "shard": spec.shard_id,
        "fleet_seed": spec.fleet_seed,
        "devices": devices,
    }


def plan_results(plan: FleetPlan, inputs: Inputs) -> Dict[int, dict]:
    """Every shard result of ``plan``, computed once per artifact run.

    The results come from ``inputs.results_from`` when that names a
    checkpoint directory, and otherwise from one serial in-process
    shard run (no workers, no supervision) that every producer of the
    same run shares — the fleet report and the SLO report fold the
    same shards.
    """
    key = ("fleet-shards", plan.fingerprint())
    if key not in inputs.cache:
        if inputs.results_from:
            results = CheckpointStore(inputs.results_from).results_for(plan)
        else:
            results = {
                spec.shard_id: run_shard(spec) for spec in plan.shards()
            }
        inputs.cache[key] = results
    return inputs.cache[key]

"""The fleet observability pipeline: samples -> deltas -> aggregate.

This module is the end-to-end path from one device's metric sample to
the fleet-wide aggregate the SLO engine judges:

1. :func:`device_telemetry` distils one device sample (the dict
   :func:`repro.fleet.device.run_device` returns) into a **telemetry
   block** — the mergeable unit of the whole pipeline;
2. :func:`merge_telemetry` folds blocks with the fleet-fold algebra
   (counters add, floors take the min, sketches merge per bin), which
   is commutative and associative with :func:`empty_telemetry` as
   identity — so *any* grouping of devices into shards, any worker
   count, and any resume split folds to the identical aggregate;
3. workers ship their shard's cumulative block on the heartbeat
   channel (:func:`heartbeat_payload` / :func:`parse_heartbeat`);
   the supervisor folds them into a :class:`FleetAggregator` for live
   progress, throughput, and error-budget burn *during* the run;
4. :func:`fleet_rollup` computes the final aggregate from the
   committed shard results — never from the streamed deltas — so the
   committed artifact is bit-identical to a serial replay regardless
   of what the stream saw.

Wire format (one JSON object per heartbeat, written atomically)::

    {"schema": 1, "shard": 3, "devices_done": 2,
     "telemetry": {"counters": {...}, "floors": {...},
                   "sketches": {"latency_cycles": {...}}}}

``counters`` are flat dotted-name integers; ``floors`` merge with
``min`` (per-device minima like the throughput floor); ``sketches``
are serialized :class:`~repro.obs.sketch.QuantileSketch` states.
Everything in a block is derived from simulated cycles and seeded RNG
streams — no wall-clock value may enter (``tools/lint_determinism.py``
guards this file).

The live stream is *observability*, not state: a lost or reordered
heartbeat only makes the progress view stale, never the artifact
wrong, because each payload carries the shard's cumulative block and
the aggregator keeps the freshest one per shard.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from .sketch import QuantileSketch
from .registry import merge_values

#: Version tag of the heartbeat/delta wire format.
WIRE_SCHEMA = 1

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
    """One device sample as a telemetry block.

    Derives every counter from the sample's committed fields, so the
    rollup of a checkpointed shard result is identical to the rollup
    of a freshly run one.
    """
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
    """The cumulative block for one shard result's devices."""
    telemetry = empty_telemetry()
    for device in shard_result.get("devices", []):
        telemetry = merge_telemetry(telemetry, device_telemetry(device))
    return telemetry


# ----------------------------------------------------------------------
# The heartbeat wire format
# ----------------------------------------------------------------------


def heartbeat_payload(shard_id: int, devices_done: int, telemetry: dict) -> str:
    """The JSON written to the heartbeat file after each device."""
    return json.dumps(
        {
            "schema": WIRE_SCHEMA,
            "shard": shard_id,
            "devices_done": devices_done,
            "telemetry": telemetry,
        },
        sort_keys=True,
    )


def parse_heartbeat(text: str) -> Optional[dict]:
    """A validated heartbeat payload, or None for anything else.

    The supervisor may race a worker's atomic rename or meet an old
    plain-text heartbeat; both simply yield no update.
    """
    try:
        data = json.loads(text)
    except ValueError:
        return None
    if not isinstance(data, dict) or data.get("schema") != WIRE_SCHEMA:
        return None
    if not isinstance(data.get("shard"), int):
        return None
    if not isinstance(data.get("devices_done"), int):
        return None
    if not isinstance(data.get("telemetry"), dict):
        return None
    return data


# ----------------------------------------------------------------------
# Live aggregation (the supervisor's view during a run)
# ----------------------------------------------------------------------


class FleetAggregator:
    """Freshest cumulative telemetry per shard, folded on demand.

    Shipment is cumulative, not incremental: every heartbeat carries
    the shard's whole block so far, and :meth:`update` keeps the one
    with the highest ``devices_done``.  That makes the stream
    idempotent under re-delivery and immune to lost beats — exactly
    the properties a heartbeat channel has to offer anyway.
    """

    def __init__(self) -> None:
        self._shards: Dict[int, dict] = {}
        self._devices_done: Dict[int, int] = {}

    def update(
        self, shard_id: int, telemetry: dict, devices_done: int
    ) -> bool:
        """Adopt a newer cumulative block; returns True if adopted."""
        if devices_done < self._devices_done.get(shard_id, 0):
            return False
        self._shards[shard_id] = telemetry
        self._devices_done[shard_id] = devices_done
        return True

    def ingest(self, payload: dict) -> bool:
        """Adopt a parsed heartbeat payload."""
        return self.update(
            payload["shard"], payload["telemetry"], payload["devices_done"]
        )

    @property
    def devices_done(self) -> int:
        return sum(self._devices_done.values())

    def combined(self) -> dict:
        """The fold of every shard's freshest block."""
        telemetry = empty_telemetry()
        for shard_id in sorted(self._shards):
            telemetry = merge_telemetry(telemetry, self._shards[shard_id])
        return telemetry

    def summary(self) -> dict:
        """A small progress view for live display (host-side only)."""
        combined = self.combined()
        counters = combined["counters"]
        sketch = QuantileSketch.from_dict(
            combined["sketches"].get(
                LATENCY_SKETCH, QuantileSketch().to_dict()
            )
        )
        return {
            "devices_done": counters.get("devices", 0),
            "cycles": counters.get("cycles", 0),
            "calls": counters.get("calls", 0),
            "injections": counters.get("faults.injections", 0),
            "escaped": counters.get("faults.escaped", 0),
            "latency_p50": sketch.quantile(0.50),
            "latency_p99": sketch.quantile(0.99),
        }


# ----------------------------------------------------------------------
# The final rollup (committed-artifact path)
# ----------------------------------------------------------------------


def fleet_rollup(plan, shard_results: Dict[int, dict], degraded=None) -> dict:
    """The fleet aggregate from committed shard results.

    ``plan`` needs ``devices`` and ``fingerprint()`` (duck-typed so
    this module never imports ``repro.fleet``).  Deterministic for any
    shard split because it is one big fleet-fold; every number derives
    from the shard results, never from the live stream.
    """
    degraded = degraded or {}
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
    degraded_devices = sum(
        len(entry) for entry in _degraded_device_lists(plan, degraded)
    )

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
            "degraded": degraded_devices,
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
            "degraded_fraction": (
                round(degraded_devices / plan.devices, 6) if plan.devices else 0.0
            ),
        },
    }


def _degraded_device_lists(plan, degraded) -> list:
    """Device-id lists of quarantined shards (plan shards if available)."""
    if not degraded:
        return []
    shards = {spec.shard_id: spec.device_ids for spec in plan.shards()}
    return [list(shards.get(shard_id, ())) for shard_id in sorted(degraded)]

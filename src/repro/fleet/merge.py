"""The deterministic fleet merge: same bytes for any execution history.

Workers may finish in any order, but the artifact is assembled in
sorted key order from per-shard results, carries no timestamps, and
rounds every float the same way — so the merged ``BENCH_fleet.json``
is byte-identical whether the fleet ran serially, on eight workers, or
was killed and resumed.

Graceful degradation: a quarantined shard's devices are *listed* in
``degraded`` (shard id, device ids, reason) and excluded from the
aggregates — a partial fleet produces a complete, honest report, never
a silently shorter device table.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.artifact import Inputs
from repro.obs.pipeline import fleet_rollup
from repro.obs.slo import load_policy, slo_report

from .device import latency_summary
from .plan import FleetPlan, committed_plan
from .shard import plan_results

#: The committed SLO policy evaluated into ``OBS_slo.json``.
SLO_POLICY = "OBS_slo_policy.json"

#: Format version for the report schema (bump on shape changes so the
#: regression gate fails loudly instead of misreading old baselines).
REPORT_VERSION = 1


class MergeError(Exception):
    """Shard results that cannot be merged into one report."""


def merge_report(
    plan: FleetPlan,
    shard_results: Dict[int, dict],
    degraded: Optional[Dict[int, str]] = None,
) -> dict:
    """Fold per-shard results into the fleet report dict.

    ``shard_results`` maps shard id -> the worker's result;
    ``degraded`` maps quarantined shard id -> reason.  Every planned
    shard must be accounted for in exactly one of the two — a shard
    missing from both would mean results were silently dropped, which
    is the one failure mode this layer exists to prevent.
    """
    degraded = degraded or {}
    planned = plan.shards()
    missing = [
        s.shard_id
        for s in planned
        if s.shard_id not in shard_results and s.shard_id not in degraded
    ]
    if missing:
        raise MergeError(
            f"shards {missing} neither completed nor quarantined — refusing "
            "to merge a silently-partial fleet"
        )
    both = sorted(set(shard_results) & set(degraded))
    if both:
        raise MergeError(f"shards {both} both completed and quarantined")

    devices = []
    all_latencies = []
    for shard_id in sorted(shard_results):
        result = shard_results[shard_id]
        if result.get("fleet_seed") != plan.seed:
            raise MergeError(
                f"shard {shard_id} was run with seed "
                f"{result.get('fleet_seed')}, plan has {plan.seed}"
            )
        for device in result["devices"]:
            entry = dict(device)
            # Raw samples feed the fleet-wide percentiles, then stay in
            # the checkpoint files — the report keeps the summaries.
            all_latencies.extend(entry.pop("latency_samples", ()))
            devices.append(entry)
    devices.sort(key=lambda d: d["device"])

    shard_index = {s.shard_id: s for s in planned}
    degraded_entries = [
        {
            "shard": shard_id,
            "devices": list(shard_index[shard_id].device_ids),
            "reason": reason,
        }
        for shard_id, reason in sorted(degraded.items())
    ]

    total_cycles = sum(d["cycles"] for d in devices)
    total_calls = sum(d["throughput"]["calls"] for d in devices)
    call_cycles = sum(d["throughput"]["cycles"] for d in devices)
    sweep_cycles = sum(d["revocation"]["sweep_cycles"] for d in devices)
    injections = sum(d["faults"]["injections"] for d in devices)
    escaped = sum(d["faults"]["escaped"] for d in devices)
    outcome_totals: Dict[str, int] = {}
    for d in devices:
        for outcome, count in d["faults"]["outcomes"].items():
            outcome_totals[outcome] = outcome_totals.get(outcome, 0) + count

    aggregates = {
        "devices_reporting": len(devices),
        "devices_degraded": sum(len(e["devices"]) for e in degraded_entries),
        "total_cycles": total_cycles,
        "throughput": {
            "calls": total_calls,
            "calls_per_kcycle": (
                round(total_calls * 1000 / call_cycles, 4) if call_cycles else 0.0
            ),
        },
        "latency": latency_summary(all_latencies),
        "revocation_duty_cycle": (
            round(sweep_cycles / total_cycles, 6) if total_cycles else 0.0
        ),
        "faults": {
            "injections": injections,
            "outcomes": outcome_totals,
            "escaped": escaped,
        },
    }

    return {
        "version": REPORT_VERSION,
        "plan": plan.to_dict(),
        "fingerprint": plan.fingerprint(),
        "aggregates": aggregates,
        "devices": devices,
        "degraded": degraded_entries,
    }


def fleet_report(inputs: Inputs) -> dict:
    """The committed ``BENCH_fleet.json``: its own plan, rerun."""
    plan = committed_plan(inputs.committed)
    return merge_report(plan, plan_results(plan, inputs), {})


def slo_document(inputs: Inputs) -> dict:
    """The committed ``OBS_slo.json``: the SLO policy over its plan."""
    plan = committed_plan(inputs.committed)
    aggregate = fleet_rollup(plan, plan_results(plan, inputs), {})
    return slo_report(plan, aggregate, load_policy(inputs.load(SLO_POLICY)))

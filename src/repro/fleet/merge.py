"""The deterministic fleet merge: same bytes for any result order.

The artifact is assembled in sorted key order from per-shard results,
carries no timestamps, and rounds every float the same way — so the
merged ``BENCH_fleet.json`` is byte-identical whatever order the shard
results arrive in.  A result map that misses a planned shard is
refused, never merged into a silently shorter device table.
"""

from __future__ import annotations

from typing import Dict

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


def merge_report(plan: FleetPlan, shard_results: Dict[int, dict]) -> dict:
    """Fold per-shard results into the fleet report dict.

    ``shard_results`` maps shard id -> :func:`~repro.fleet.shard.run_shard`
    result.  Every planned shard must be present — a missing one would
    mean results were silently dropped, which is the one failure mode
    this layer exists to prevent.
    """
    missing = [
        s.shard_id for s in plan.shards() if s.shard_id not in shard_results
    ]
    if missing:
        raise MergeError(
            f"shards {missing} missing — refusing to merge a partial fleet"
        )

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
            # Raw samples feed the fleet-wide percentiles; the report
            # keeps only the summaries.
            all_latencies.extend(entry.pop("latency_samples", ()))
            devices.append(entry)
    devices.sort(key=lambda d: d["device"])

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

    # ``devices_degraded`` and ``degraded`` are always empty: every
    # planned shard is merged or the merge is refused.  They stay so
    # the committed report keeps its schema.
    aggregates = {
        "devices_reporting": len(devices),
        "devices_degraded": 0,
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
        "degraded": [],
    }


def fleet_report(inputs: Inputs) -> dict:
    """The committed ``BENCH_fleet.json``: its own plan, rerun."""
    plan = committed_plan(inputs.committed)
    return merge_report(plan, plan_results(plan, inputs))


def slo_document(inputs: Inputs) -> dict:
    """The committed ``OBS_slo.json``: the SLO policy over its plan."""
    plan = committed_plan(inputs.committed)
    aggregate = fleet_rollup(plan, plan_results(plan, inputs))
    return slo_report(plan, aggregate, load_policy(inputs.load(SLO_POLICY)))

"""The fleet fold: one device list, both committed reports.

:func:`plan_devices` runs every device of a plan once per artifact
run, serially and in device-id order.  :func:`merge_report` folds the
samples into ``BENCH_fleet.json``, and :func:`fleet_rollup` folds the
same samples into the aggregate the SLO policy judges in
``OBS_slo.json``.  Both assemble everything in sorted key order, carry
no timestamps and round every float the same way, so the same plan
always produces the same bytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.artifact import Inputs
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import load_policy, slo_report

from .device import latency_summary, run_device
from .plan import FleetPlan, committed_plan

#: The committed SLO policy evaluated into ``OBS_slo.json``.
SLO_POLICY = "OBS_slo_policy.json"

#: Format version for the report schema (bump on shape changes so the
#: regression gate fails loudly instead of misreading old baselines).
REPORT_VERSION = 1

#: Version tag of the rolled-up fleet aggregate shape.
AGGREGATE_SCHEMA = 1


def plan_devices(plan: FleetPlan, inputs: Inputs) -> List[dict]:
    """Every device sample of ``plan``, computed once per artifact run.

    The fleet report and the SLO report fold the same samples, so the
    first of them to run fills ``inputs.cache`` and the second reads it.
    """
    key = ("fleet-devices", plan.fingerprint())
    if key not in inputs.cache:
        inputs.cache[key] = [run_device(spec) for spec in plan.device_specs()]
    return inputs.cache[key]


def _device_counters(sample: dict) -> Dict[str, int]:
    """One device's contribution to the fleet's flat counters."""
    faults = sample["faults"]
    counters = {
        "devices": 1,
        "cycles": sample["cycles"],
        "calls": sample["throughput"]["calls"],
        "call_cycles": sample["throughput"]["cycles"],
        "kernel.instructions": sample["kernel"]["instructions"],
        "kernel.cycles": sample["kernel"]["cycles"],
        "revocation.sweep_cycles": sample["revocation"]["sweep_cycles"],
        "faults.injections": faults["injections"],
        "faults.escaped": faults["escaped"],
    }
    for outcome, count in faults["outcomes"].items():
        counters[f"faults.outcome.{outcome}"] = count
    for name, count in sample["net"]["counters"].items():
        counters[f"net.{name}"] = count
    return counters


def _totals(tallies: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Key-wise sums, in sorted key order."""
    totals: Dict[str, int] = {}
    for tally in tallies:
        for name, count in tally.items():
            totals[name] = totals.get(name, 0) + count
    return dict(sorted(totals.items()))


def _derived(counters: Dict[str, int]) -> dict:
    """The fleet-wide ratios both reports carry."""
    return {
        "calls_per_kcycle": round(
            counters["calls"] * 1000 / counters["call_cycles"], 4
        ),
        "revocation_duty_cycle": round(
            counters["revocation.sweep_cycles"] / counters["cycles"], 6
        ),
    }


def _pooled_latencies(devices: List[dict]) -> List[int]:
    return [
        cycles for sample in devices for cycles in sample["latency_samples"]
    ]


def merge_report(plan: FleetPlan, devices: List[dict]) -> dict:
    """The fleet report: fleet-wide aggregates and one entry per device.

    A device's entry is its sample without the raw latency samples,
    which only feed the fleet-wide percentiles.
    """
    counters = _totals(map(_device_counters, devices))
    derived = _derived(counters)
    return {
        "version": REPORT_VERSION,
        "plan": plan.to_dict(),
        "fingerprint": plan.fingerprint(),
        "aggregates": {
            "devices_reporting": len(devices),
            "total_cycles": counters["cycles"],
            "throughput": {
                "calls": counters["calls"],
                "calls_per_kcycle": derived["calls_per_kcycle"],
            },
            "latency": latency_summary(_pooled_latencies(devices)),
            "revocation_duty_cycle": derived["revocation_duty_cycle"],
            "faults": {
                "injections": counters["faults.injections"],
                "outcomes": _totals(
                    sample["faults"]["outcomes"] for sample in devices
                ),
                "escaped": counters["faults.escaped"],
            },
        },
        "devices": [
            {k: v for k, v in sample.items() if k != "latency_samples"}
            for sample in devices
        ],
    }


def fleet_rollup(plan: FleetPlan, devices: List[dict]) -> dict:
    """The fleet aggregate the SLO policy judges.

    Counters add, the throughput floor takes the minimum, every pooled
    call latency is observed into one sketch, and the devices' net
    packet-latency sketches merge bin by bin.
    """
    counters = _totals(map(_device_counters, devices))
    latency = QuantileSketch()
    latency.observe_many(_pooled_latencies(devices))
    net_latency = QuantileSketch()
    for sample in devices:
        net_latency.merge(
            QuantileSketch.from_dict(sample["net"]["latency_sketch"])
        )
    return {
        "schema": AGGREGATE_SCHEMA,
        "fingerprint": plan.fingerprint(),
        "devices": {"planned": plan.devices, "reporting": len(devices)},
        "counters": counters,
        "floors": {
            "calls_per_kcycle": min(
                sample["throughput"]["calls_per_kcycle"] for sample in devices
            ),
        },
        "latency_sketch": latency.summary(),
        "sketch": latency.to_dict(),
        "net_latency": net_latency.summary(),
        "net_sketch": net_latency.to_dict(),
        "derived": _derived(counters),
    }


def fleet_report(inputs: Inputs) -> dict:
    """The committed ``BENCH_fleet.json``: its own plan, rerun."""
    plan = committed_plan(inputs.committed)
    return merge_report(plan, plan_devices(plan, inputs))


def slo_document(inputs: Inputs) -> dict:
    """The committed ``OBS_slo.json``: the SLO policy over its plan."""
    plan = committed_plan(inputs.committed)
    aggregate = fleet_rollup(plan, plan_devices(plan, inputs))
    return slo_report(plan, aggregate, load_policy(inputs.load(SLO_POLICY)))

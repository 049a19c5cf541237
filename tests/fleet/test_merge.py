"""The fleet fold: one device list into both reports, byte-stable."""

from repro.artifact import Inputs, render_json
from repro.fleet import FleetPlan, fleet_rollup, merge_report
from repro.fleet.merge import plan_devices
from repro.obs.sketch import QuantileSketch

#: Tiny fleet so the module stays fast; module-level cache because the
#: device runs are pure functions of the plan.
PLAN = FleetPlan(devices=4, injections_per_device=1, alloc_ops=4)
_INPUTS = Inputs()


def devices():
    return plan_devices(PLAN, _INPUTS)


class TestByteStability:
    def test_devices_sorted_and_samples_stripped(self):
        report = merge_report(PLAN, devices())
        ids = [d["device"] for d in report["devices"]]
        assert ids == sorted(ids) == list(range(4))
        assert all("latency_samples" not in d for d in report["devices"])
        # The shared samples keep theirs for the SLO rollup.
        assert all("latency_samples" in d for d in devices())

    def test_fleet_latency_pools_every_device_sample(self):
        report = merge_report(PLAN, devices())
        per_device = sum(d["latency"]["count"] for d in report["devices"])
        assert report["aggregates"]["latency"]["count"] == per_device

    def test_report_names_plan_and_fingerprint(self):
        report = merge_report(PLAN, devices())
        assert report["plan"] == PLAN.to_dict()
        assert report["fingerprint"] == PLAN.fingerprint()
        assert render_json(report).endswith("\n")

    def test_one_run_per_artifact_run(self):
        assert plan_devices(PLAN, _INPUTS) is devices()
        assert plan_devices(PLAN, Inputs()) == devices()


class TestRollup:
    def test_counters_add_and_the_floor_takes_the_minimum(self):
        aggregate = fleet_rollup(PLAN, devices())
        counters = aggregate["counters"]
        assert counters["devices"] == aggregate["devices"]["reporting"] == 4
        assert counters["calls"] == sum(
            d["throughput"]["calls"] for d in devices()
        )
        assert counters["net.packets_in"] == sum(
            d["net"]["counters"]["packets_in"] for d in devices()
        )
        assert list(counters) == sorted(counters)
        assert aggregate["floors"]["calls_per_kcycle"] == min(
            d["throughput"]["calls_per_kcycle"] for d in devices()
        )

    def test_call_sketch_observes_every_pooled_latency(self):
        pooled = QuantileSketch()
        for sample in devices():
            pooled.observe_many(sample["latency_samples"])
        aggregate = fleet_rollup(PLAN, devices())
        assert aggregate["sketch"] == pooled.to_dict()
        assert aggregate["latency_sketch"] == pooled.summary()

    def test_net_sketch_merges_the_device_sketches(self):
        aggregate = fleet_rollup(PLAN, devices())
        sketches = [d["net"]["latency_sketch"] for d in devices()]
        assert sum(sketch["count"] for sketch in sketches) > 0
        for key, fold in (("count", sum), ("sum", sum), ("min", min),
                          ("max", max)):
            assert aggregate["net_sketch"][key] == fold(
                sketch[key] for sketch in sketches
            )
        assert aggregate["net_latency"] == (
            QuantileSketch.from_dict(aggregate["net_sketch"]).summary()
        )

    def test_both_reports_fold_the_same_totals(self):
        aggregate = fleet_rollup(PLAN, devices())
        report = merge_report(PLAN, devices())["aggregates"]
        assert aggregate["counters"]["cycles"] == report["total_cycles"]
        assert aggregate["derived"] == {
            "calls_per_kcycle": report["throughput"]["calls_per_kcycle"],
            "revocation_duty_cycle": report["revocation_duty_cycle"],
        }
        assert aggregate["counters"]["faults.escaped"] == (
            report["faults"]["escaped"]
        )
        for outcome, count in report["faults"]["outcomes"].items():
            assert aggregate["counters"][f"faults.outcome.{outcome}"] == count

"""The merge: byte-stable, order-blind, and loud about missing shards."""

import pytest

from repro.artifact import render_json
from repro.fleet import FleetPlan, merge_report, run_shard
from repro.fleet.merge import MergeError

#: Tiny fleet so the module stays fast; module-level cache because the
#: shard runs are pure functions of the plan.
PLAN = FleetPlan(devices=4, shard_size=2, injections_per_device=1, alloc_ops=4)
_RESULTS = None


def shard_results():
    global _RESULTS
    if _RESULTS is None:
        _RESULTS = {s.shard_id: run_shard(s) for s in PLAN.shards()}
    return dict(_RESULTS)


class TestByteStability:
    def test_result_dict_order_never_matters(self):
        forward = shard_results()
        backward = dict(sorted(forward.items(), reverse=True))
        assert render_json(
            merge_report(PLAN, forward, {})
        ) == render_json(merge_report(PLAN, backward, {}))

    def test_devices_sorted_and_samples_stripped(self):
        report = merge_report(PLAN, shard_results(), {})
        ids = [d["device"] for d in report["devices"]]
        assert ids == sorted(ids) == list(range(4))
        assert all("latency_samples" not in d for d in report["devices"])

    def test_fleet_latency_pools_every_device_sample(self):
        report = merge_report(PLAN, shard_results(), {})
        per_device = sum(d["latency"]["count"] for d in report["devices"])
        assert report["aggregates"]["latency"]["count"] == per_device

    def test_report_names_plan_and_fingerprint(self):
        report = merge_report(PLAN, shard_results(), {})
        assert report["plan"] == PLAN.to_dict()
        assert report["fingerprint"] == PLAN.fingerprint()
        assert render_json(report).endswith("\n")


class TestDegradation:
    def test_quarantined_shard_is_annotated_not_dropped(self):
        results = shard_results()
        lost = results.pop(1)
        report = merge_report(PLAN, results, {1: "quarantined after 3 attempts"})
        (entry,) = report["degraded"]
        assert entry["shard"] == 1
        assert entry["devices"] == [2, 3]
        assert "quarantined" in entry["reason"]
        assert report["aggregates"]["devices_reporting"] == 2
        assert report["aggregates"]["devices_degraded"] == 2
        # The degraded devices' numbers are really excluded.
        full = merge_report(PLAN, shard_results(), {})
        lost_cycles = sum(d["cycles"] for d in lost["devices"])
        assert report["aggregates"]["total_cycles"] == (
            full["aggregates"]["total_cycles"] - lost_cycles
        )

    def test_missing_shard_refused(self):
        results = shard_results()
        results.pop(0)
        with pytest.raises(MergeError, match=r"shards \[0\]"):
            merge_report(PLAN, results, {})

    def test_completed_and_quarantined_refused(self):
        with pytest.raises(MergeError, match="both completed and quarantined"):
            merge_report(PLAN, shard_results(), {0: "but it also finished"})

    def test_seed_mismatch_refused(self):
        results = shard_results()
        results[0] = dict(results[0], fleet_seed=999)
        with pytest.raises(MergeError, match="seed"):
            merge_report(PLAN, results, {})

"""The fleet observability pipeline: blocks and rollup."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import render_json
from repro.fleet import FleetPlan, run_shard
from repro.obs.pipeline import (
    LATENCY_SKETCH,
    PipelineError,
    device_telemetry,
    empty_telemetry,
    fleet_rollup,
    merge_telemetry,
    shard_telemetry,
)

#: A small plan keeps the module fast; two shards of two devices.
PLAN = FleetPlan(devices=4, shard_size=2, injections_per_device=1, alloc_ops=4)


def _results(plan):
    return {spec.shard_id: run_shard(spec) for spec in plan.shards()}


def _block(counters=None, floors=None):
    block = empty_telemetry()
    block["counters"].update(counters or {})
    block["floors"].update(floors or {})
    return block


class TestBlocks:
    def test_device_telemetry_carries_the_sample(self):
        sample = _results(PLAN)[0]["devices"][0]
        block = device_telemetry(sample)
        assert block["counters"]["devices"] == 1
        assert block["counters"]["cycles"] == sample["cycles"]
        assert block["counters"]["faults.escaped"] == 0
        assert block["floors"]["calls_per_kcycle"] == (
            sample["throughput"]["calls_per_kcycle"]
        )
        assert block["sketches"][LATENCY_SKETCH]["count"] == (
            len(sample["latency_samples"])
        )

    def test_merge_adds_counters_and_takes_floor_minimum(self):
        merged = merge_telemetry(
            _block({"calls": 2}, {"calls_per_kcycle": 2.5}),
            _block({"calls": 3}, {"calls_per_kcycle": 1.5}),
        )
        assert merged["counters"]["calls"] == 5
        assert merged["floors"]["calls_per_kcycle"] == 1.5

    def test_empty_is_the_identity(self):
        block = device_telemetry(_results(PLAN)[0]["devices"][0])
        assert merge_telemetry(block, empty_telemetry()) == block
        assert merge_telemetry(empty_telemetry(), block) == block

    def test_unknown_block_keys_are_refused(self):
        bad = dict(empty_telemetry(), surprise=1)
        with pytest.raises(PipelineError):
            merge_telemetry(bad, empty_telemetry())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_shard_split_never_changes_the_fold(self, shard_size):
        """The same devices grouped into any shard size fold to the
        identical cumulative block."""
        plan = FleetPlan(
            devices=4, shard_size=shard_size,
            injections_per_device=1, alloc_ops=4,
        )
        folded = empty_telemetry()
        for spec in plan.shards():
            folded = merge_telemetry(folded, shard_telemetry(run_shard(spec)))
        reference = empty_telemetry()
        for spec in PLAN.shards():
            reference = merge_telemetry(
                reference, shard_telemetry(run_shard(spec))
            )
        assert folded == reference


class TestRollup:
    def test_rollup_is_split_invariant(self):
        """Sharding the same devices differently moves only the plan
        fingerprint — every aggregated number is byte-identical."""
        wide = FleetPlan(devices=4, shard_size=4,
                         injections_per_device=1, alloc_ops=4)
        a = fleet_rollup(PLAN, _results(PLAN))
        b = fleet_rollup(wide, _results(wide))
        assert a.pop("fingerprint") != b.pop("fingerprint")
        assert render_json(a) == render_json(b)

"""The fleet observability pipeline: blocks, wire format, rollup."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import render_json
from repro.fleet import FleetPlan, run_shard
from repro.obs.pipeline import (
    LATENCY_SKETCH,
    FleetAggregator,
    PipelineError,
    device_telemetry,
    empty_telemetry,
    fleet_rollup,
    heartbeat_payload,
    merge_telemetry,
    parse_heartbeat,
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


class TestWireFormat:
    def test_heartbeat_round_trip(self):
        block = _block({"devices": 2})
        payload = parse_heartbeat(heartbeat_payload(3, 2, block))
        assert payload["shard"] == 3
        assert payload["devices_done"] == 2
        assert payload["telemetry"] == block

    def test_payload_bytes_are_canonical(self):
        text = heartbeat_payload(0, 1, _block({"a": 1}))
        assert text == json.dumps(json.loads(text), sort_keys=True)

    @pytest.mark.parametrize(
        "text",
        [
            "",  # torn write
            "not json",
            "42",
            json.dumps({"schema": 99, "shard": 0, "devices_done": 0,
                        "telemetry": {}}),
            json.dumps({"schema": 1, "shard": "x", "devices_done": 0,
                        "telemetry": {}}),
            json.dumps({"schema": 1, "shard": 0, "devices_done": 0}),
        ],
    )
    def test_garbage_heartbeats_yield_none(self, text):
        assert parse_heartbeat(text) is None


class TestAggregator:
    def test_keeps_the_freshest_cumulative_block(self):
        agg = FleetAggregator()
        assert agg.update(0, _block({"devices": 2}), 2)
        # A stale re-delivery must not regress the view.
        assert not agg.update(0, _block({"devices": 1}), 1)
        assert agg.update(1, _block({"devices": 1}), 1)
        assert agg.devices_done == 3
        assert agg.combined()["counters"]["devices"] == 3

    def test_summary_reads_the_latency_sketch(self):
        agg = FleetAggregator()
        shard_result = _results(PLAN)[0]
        agg.update(0, shard_telemetry(shard_result), 2)
        summary = agg.summary()
        assert summary["devices_done"] == 2
        assert summary["latency_p50"] > 0
        assert summary["escaped"] == 0

    def test_live_fold_equals_final_rollup(self):
        """Streaming the per-shard blocks and folding them reproduces
        exactly what the committed-result rollup computes."""
        results = _results(PLAN)
        agg = FleetAggregator()
        for shard_id, result in sorted(results.items()):
            payload = parse_heartbeat(
                heartbeat_payload(
                    shard_id, len(result["devices"]), shard_telemetry(result)
                )
            )
            assert agg.ingest(payload)
        rollup = fleet_rollup(PLAN, results, {})
        assert agg.combined()["counters"] == rollup["counters"]
        assert agg.combined()["sketches"][LATENCY_SKETCH] == rollup["sketch"]


class TestRollup:
    def test_rollup_is_split_invariant(self):
        """Sharding the same devices differently moves only the plan
        fingerprint — every aggregated number is byte-identical."""
        wide = FleetPlan(devices=4, shard_size=4,
                         injections_per_device=1, alloc_ops=4)
        a = fleet_rollup(PLAN, _results(PLAN), {})
        b = fleet_rollup(wide, _results(wide), {})
        assert a.pop("fingerprint") != b.pop("fingerprint")
        assert render_json(a) == render_json(b)

    def test_rollup_counts_degraded_devices(self):
        results = _results(PLAN)
        partial = {k: v for k, v in results.items() if k != 1}
        rollup = fleet_rollup(PLAN, partial, {1: {"attempts": 3}})
        assert rollup["devices"] == {"planned": 4, "reporting": 2, "degraded": 2}
        assert rollup["derived"]["degraded_fraction"] == 0.5

"""The streaming-shipment leg: heartbeat telemetry, live aggregation.

Workers piggyback their shard's cumulative telemetry block on the
heartbeat file; the supervisor folds the blocks into a live
:class:`~repro.obs.pipeline.FleetAggregator` and emits progress
callbacks.  The contract under test: the live view converges to
exactly the committed-result rollup, and streaming changes nothing
about the byte-stable report.
"""

import json
import subprocess
import sys
import os

from repro.artifact import render_json
from repro.fleet import (
    CheckpointStore,
    FleetPlan,
    FleetSupervisor,
    RetryPolicy,
    merge_report,
    run_shard,
)
from repro.obs.pipeline import (
    LATENCY_SKETCH,
    fleet_rollup,
    parse_heartbeat,
    shard_telemetry,
)

PLAN = FleetPlan(devices=3, shard_size=1, injections_per_device=1, alloc_ops=4)
RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, seed=0)
ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


class TestShardHeartbeat:
    def test_heartbeat_blocks_are_cumulative(self):
        plan = FleetPlan(devices=2, shard_size=2,
                         injections_per_device=1, alloc_ops=4)
        blocks = []
        run_shard(
            plan.shards()[0],
            heartbeat=lambda device_id, done, telemetry: blocks.append(
                (done, telemetry)
            ),
        )
        assert [done for done, _ in blocks] == [1, 2]
        assert blocks[0][1]["counters"]["devices"] == 1
        assert blocks[1][1]["counters"]["devices"] == 2
        # The last beat is the shard's whole block.
        result = run_shard(plan.shards()[0])
        assert blocks[-1][1] == shard_telemetry(result)


class TestWorkerWire:
    def test_worker_writes_parseable_heartbeats(self, tmp_path):
        spec = PLAN.shards()[0]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        out = tmp_path / "out.json"
        beat = tmp_path / "beat.json"
        subprocess.run(
            [sys.executable, "-m", "repro.fleet.worker",
             "--spec", str(spec_path), "--out", str(out),
             "--heartbeat", str(beat)],
            check=True,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
        payload = parse_heartbeat(beat.read_text())
        assert payload is not None
        assert payload["shard"] == spec.shard_id
        assert payload["devices_done"] == len(spec.device_ids)
        result = json.loads(out.read_text())
        assert payload["telemetry"] == shard_telemetry(result)


class TestSupervisedStreaming:
    def test_live_aggregate_converges_to_the_rollup(self, tmp_path):
        summaries = []
        supervisor = FleetSupervisor(
            PLAN,
            CheckpointStore(str(tmp_path / "ckpt")),
            jobs=2,
            retry=RETRY,
            progress=summaries.append,
            progress_interval=0.0,
        )
        results, quarantined = supervisor.run()
        assert quarantined == {}
        assert summaries, "progress callback never fired"
        final = summaries[-1]
        rollup = fleet_rollup(PLAN, results, {})
        assert final["devices_done"] == PLAN.devices
        assert final["shards_completed"] == len(PLAN.shards())
        assert final["cycles"] == rollup["counters"]["cycles"]
        assert final["calls"] == rollup["counters"]["calls"]
        assert supervisor.live.combined()["sketches"][LATENCY_SKETCH] == (
            rollup["sketch"]
        )

    def test_resumed_shards_fold_into_the_live_view(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.bind(PLAN, resume=False)
        store.commit(0, run_shard(PLAN.shards()[0]))
        summaries = []
        supervisor = FleetSupervisor(
            PLAN, store, jobs=2, retry=RETRY,
            progress=summaries.append, progress_interval=0.0,
        )
        results, _ = supervisor.run(resume=True)
        assert summaries[-1]["devices_done"] == PLAN.devices
        assert summaries[-1]["shards_completed"] == len(PLAN.shards())
        # Resume with streaming still merges byte-identically.
        assert render_json(merge_report(PLAN, results, {})) == render_json(
            merge_report(
                PLAN, {s.shard_id: run_shard(s) for s in PLAN.shards()}, {}
            )
        )

"""Supervisor chaos tests: crash, hang, quarantine, SIGTERM + resume.

The chaos hooks live in the *worker* (`REPRO_FLEET_CHAOS` token
files), so everything exercised here — polling, kill escalation,
retry scheduling, checkpoint commits, quarantine verdicts — is the
production supervision path, not a test double.

The acceptance assert throughout: whatever the supervisor had to do to
keep the fleet alive, the merged report is byte-identical to the
undisturbed serial run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.artifact import render_json
from repro.fleet import (
    CheckpointStore,
    FleetPlan,
    FleetSupervisor,
    RetryPolicy,
    merge_report,
    run_shard,
)

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: One device per shard keeps worker runtime ~= interpreter startup.
PLAN = FleetPlan(devices=3, shard_size=1, injections_per_device=1, alloc_ops=4)

#: Fast retries: these tests inject failures on purpose.
RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, seed=0)


def serial_bytes(plan=PLAN):
    return render_json(
        merge_report(plan, {s.shard_id: run_shard(s) for s in plan.shards()}, {})
    )


def chaos_token(chaos_dir, kind, shard_id):
    path = os.path.join(str(chaos_dir), f"{kind}-{shard_id}")
    with open(path, "w"):
        pass


class TestSupervisedRuns:
    def test_clean_parallel_run_matches_serial_bytes(self, tmp_path):
        supervisor = FleetSupervisor(
            PLAN, CheckpointStore(str(tmp_path / "ckpt")), jobs=3, retry=RETRY
        )
        results, quarantined = supervisor.run()
        assert quarantined == {}
        assert render_json(
            merge_report(PLAN, results, quarantined)
        ) == serial_bytes()
        assert supervisor.health.worker_launches == 3
        assert supervisor.health.shards_completed == 3

    def test_crashed_worker_is_retried_and_report_is_identical(self, tmp_path):
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        chaos_token(chaos, "crash", 1)
        supervisor = FleetSupervisor(
            PLAN,
            CheckpointStore(str(tmp_path / "ckpt")),
            jobs=2,
            retry=RETRY,
            chaos_dir=str(chaos),
        )
        results, quarantined = supervisor.run()
        assert quarantined == {}
        assert render_json(
            merge_report(PLAN, results, quarantined)
        ) == serial_bytes()
        assert supervisor.health.worker_crashes == 1
        assert supervisor.health.retries == 1
        assert supervisor.health.worker_launches == 4

    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        chaos_token(chaos, "hang", 0)
        supervisor = FleetSupervisor(
            PLAN,
            CheckpointStore(str(tmp_path / "ckpt")),
            jobs=3,
            timeout=3.0,
            retry=RETRY,
            chaos_dir=str(chaos),
        )
        results, quarantined = supervisor.run()
        assert quarantined == {}
        assert render_json(
            merge_report(PLAN, results, quarantined)
        ) == serial_bytes()
        assert supervisor.health.worker_timeouts == 1
        assert supervisor.health.retries == 1

    def test_stubborn_shard_is_quarantined_with_history(self, tmp_path):
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        chaos_token(chaos, "stubborn", 2)
        supervisor = FleetSupervisor(
            PLAN,
            CheckpointStore(str(tmp_path / "ckpt")),
            jobs=2,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                              max_delay=0.05, seed=0),
            chaos_dir=str(chaos),
        )
        results, quarantined = supervisor.run()
        assert set(results) == {0, 1}
        assert set(quarantined) == {2}
        assert "quarantined after 2 attempts" in quarantined[2]
        # The worker's stderr made it into the verdict (diagnosability).
        assert "failing persistently" in quarantined[2]
        report = merge_report(PLAN, results, quarantined)
        (entry,) = report["degraded"]
        assert entry["shard"] == 2 and entry["devices"] == [2]
        assert supervisor.health.quarantined == 1

    def test_bad_result_payload_is_a_failure_not_a_merge_bomb(self, tmp_path):
        """A worker that exits 0 with a wrong-devices result must be
        treated as failed, not committed."""
        store = CheckpointStore(str(tmp_path / "ckpt"))
        supervisor = FleetSupervisor(
            PLAN, store, jobs=1,
            retry=RetryPolicy(max_attempts=1, seed=0),
        )
        real_harvest = supervisor._harvest

        def corrupted_harvest(state):
            result = real_harvest(state)
            if result is not None and state.spec.shard_id == 1:
                result = dict(result, devices=[])
                state.failures.append("devices stripped by test")
                return None
            return result

        supervisor._harvest = corrupted_harvest
        results, quarantined = supervisor.run()
        assert set(results) == {0, 2}
        assert 1 in quarantined


class TestSigtermResume:
    """The ISSUE's chaos scenario, end to end through the CLI."""

    def test_sigterm_then_resume_is_byte_identical(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        out = str(tmp_path / "BENCH_fleet.json")
        cmd = [
            sys.executable,
            os.path.join(ROOT, "tools", "fleet_campaign.py"),
            "--devices", "3", "--shard-size", "1",
            "--injections", "1", "--alloc-ops", "4",
            "--jobs", "1",
            "--checkpoint-dir", ckpt,
            "--output", out,
            # Shard 2 hangs (once): the run wedges after shards 0 and 1
            # commit, which gives SIGTERM a stable window to land in.
            "--chaos-hang", "2",
            "--timeout", "60",
        ]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.monotonic() + 60
        want = {os.path.join(ckpt, f"shard-000{n}.json") for n in (0, 1)}
        while time.monotonic() < deadline:
            if all(os.path.exists(p) for p in want):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("first two shards never checkpointed")
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 130, stdout + stderr
        assert not os.path.exists(out)
        # Health sidecar recorded the interruption.
        with open(os.path.join(ckpt, "health.json")) as fh:
            health = json.load(fh)
        assert health["interrupted"] == 1

        resumed = subprocess.run(
            [
                sys.executable,
                os.path.join(ROOT, "tools", "fleet_campaign.py"),
                "--devices", "3", "--shard-size", "1",
                "--injections", "1", "--alloc-ops", "4",
                "--checkpoint-dir", ckpt, "--resume",
                "--output", out,
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "resuming: 2 shard(s) already checkpointed" in resumed.stderr
        with open(out) as fh:
            assert fh.read() == serial_bytes()

    def test_resume_with_wrong_plan_is_refused(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        store = CheckpointStore(ckpt)
        store.bind(PLAN, resume=False)
        other = FleetPlan(devices=5, shard_size=1)
        supervisor = FleetSupervisor(other, CheckpointStore(ckpt), jobs=1)
        from repro.fleet.checkpoint import CheckpointError

        with pytest.raises(CheckpointError, match="resume refused"):
            supervisor.run(resume=True)

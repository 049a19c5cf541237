"""Device runner: pure function of the spec, tier-invariant numbers."""

from repro.fleet import DeviceSpec, run_device
from repro.fleet.device import latency_summary
from repro.fleet.shard import run_shard
from repro.fleet.plan import FleetPlan

#: Small workload so the whole module stays fast.
SPEC = DeviceSpec(device_id=3, fleet_seed=20260807, injections=1, alloc_ops=4)


class TestDeterminism:
    def test_same_spec_same_sample(self):
        assert run_device(SPEC) == run_device(SPEC)

    def test_different_devices_differ(self):
        other = DeviceSpec(device_id=4, fleet_seed=20260807,
                           injections=1, alloc_ops=4)
        a, b = run_device(SPEC), run_device(other)
        assert a["seed"] != b["seed"]
        assert a["kernel"]["iterations"] != b["kernel"]["iterations"] or (
            a["cycles"] != b["cycles"]
        )

    def test_tier_choice_never_changes_the_numbers(self):
        """The report's determinism rests on cycle-exact tiers: a device
        run with the trace-JIT must produce the identical sample."""
        jit = run_device(SPEC)
        interp = run_device(
            DeviceSpec(device_id=3, fleet_seed=20260807, injections=1,
                       alloc_ops=4, trace_jit=False)
        )
        assert jit == interp


class TestSampleShape:
    def test_sample_has_every_report_field(self):
        sample = run_device(SPEC)
        assert sample["device"] == 3
        assert sample["faults"]["injections"] == 1
        assert sample["faults"]["escaped"] == 0
        assert sample["throughput"]["calls"] == len(sample["latency_samples"])
        assert sample["latency"]["count"] == len(sample["latency_samples"])
        assert 0.0 < sample["revocation"]["duty_cycle"] < 1.0
        assert sample["kernel"]["instructions"] > 0

    def test_shard_concatenates_devices_in_order(self):
        plan = FleetPlan(devices=2, shard_size=2, injections_per_device=1,
                         alloc_ops=4)
        result = run_shard(plan.shards()[0])
        assert [d["device"] for d in result["devices"]] == [0, 1]
        assert result["fleet_seed"] == plan.seed


class TestLatencySummary:
    def test_empty_is_all_zero(self):
        summary = latency_summary([])
        assert summary == {
            "count": 0, "min": 0, "p50": 0, "p90": 0, "p99": 0,
            "max": 0, "mean": 0.0,
        }

    def test_percentiles_are_nearest_rank_order_independent(self):
        samples = list(range(1, 101))
        summary = latency_summary(samples)
        reversed_summary = latency_summary(list(reversed(samples)))
        assert summary == reversed_summary
        assert summary["p50"] == 50
        assert summary["p99"] == 99
        assert summary["min"] == 1 and summary["max"] == 100
        assert summary["mean"] == 50.5

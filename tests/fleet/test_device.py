"""Device runner: a pure function of the spec.

The kernel phase's tier invariance is pinned with the other tier
differentials, in ``tests/isa/test_block_cache.py``.
"""

from repro.fleet import DeviceSpec, run_device
from repro.fleet.device import _percentile, latency_summary

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

    def test_rank_survives_float_products(self):
        """``0.999 * 100`` truncates to 99, which ranked the 990th of
        1,000 samples; the shared rank rule rounds first."""
        assert _percentile(list(range(1, 1001)), 0.999) == 999

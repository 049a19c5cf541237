"""Plan layer: seeds, device specs, validation and the fingerprint pin."""

import pytest

from repro.fleet import DeviceSpec, FleetPlan
from repro.fleet.device import device_seed


class TestDeviceSeed:
    def test_deterministic_and_in_range(self):
        for device in range(100):
            seed = device_seed(20260807, device)
            assert seed == device_seed(20260807, device)
            assert 0 <= seed < 2**31

    def test_decorrelated_across_devices_and_fleets(self):
        seeds = {device_seed(20260807, d) for d in range(100)}
        assert len(seeds) == 100
        assert device_seed(1, 5) != device_seed(2, 5)


class TestDeviceSpecs:
    def test_every_device_once_in_id_order(self):
        specs = FleetPlan(devices=7).device_specs()
        assert [spec.device_id for spec in specs] == list(range(7))

    def test_specs_carry_the_workload_knobs(self):
        plan = FleetPlan(devices=2, seed=99, injections_per_device=5,
                         alloc_ops=7)
        assert plan.device_specs() == [
            DeviceSpec(device_id=i, fleet_seed=99, injections=5, alloc_ops=7)
            for i in range(2)
        ]


class TestValidation:
    def test_validation(self):
        for name in ("devices", "injections_per_device", "alloc_ops"):
            for value in (0, -1):
                with pytest.raises(ValueError, match=f"^{name} must be "):
                    FleetPlan(**{"devices": 1, name: value})
        # A plan block left over from an older schema fails loudly.
        stale = {**FleetPlan(devices=8).to_dict(), "trace_jit": True}
        with pytest.raises(ValueError, match="trace_jit"):
            FleetPlan.from_dict(stale)


class TestFingerprint:
    def test_stable_for_equal_plans(self):
        assert (
            FleetPlan(devices=8).fingerprint()
            == FleetPlan(devices=8).fingerprint()
        )

    def test_sensitive_to_every_knob(self):
        base = FleetPlan(devices=8)
        variants = [
            FleetPlan(devices=9),
            FleetPlan(devices=8, seed=1),
            FleetPlan(devices=8, injections_per_device=4),
            FleetPlan(devices=8, alloc_ops=13),
        ]
        prints = {p.fingerprint() for p in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)

    def test_round_trip_preserves_fingerprint(self):
        plan = FleetPlan(devices=5, seed=7)
        assert FleetPlan.from_dict(plan.to_dict()).fingerprint() == (
            plan.fingerprint()
        )

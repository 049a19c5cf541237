"""Plan layer: seeds, shard assignment, and the fingerprint pin."""

import pytest

from repro.fleet import FleetPlan
from repro.fleet.plan import device_seed


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


class TestShards:
    def test_contiguous_cover_every_device_exactly_once(self):
        plan = FleetPlan(devices=7, shard_size=3)
        shards = plan.shards()
        assert [s.shard_id for s in shards] == [0, 1, 2]
        covered = [d for s in shards for d in s.device_ids]
        assert covered == list(range(7))
        # The ragged tail shard holds the remainder.
        assert shards[-1].device_ids == (6,)

    def test_shards_carry_the_workload_knobs(self):
        plan = FleetPlan(
            devices=2, shard_size=1, seed=99, injections_per_device=5,
            alloc_ops=7, trace_jit=False,
        )
        for shard in plan.shards():
            assert shard.fleet_seed == 99
            assert shard.injections_per_device == 5
            assert shard.alloc_ops == 7
            assert shard.trace_jit is False

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetPlan(devices=0)
        with pytest.raises(ValueError):
            FleetPlan(devices=1, shard_size=0)


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
            FleetPlan(devices=8, shard_size=3),
            FleetPlan(devices=8, seed=1),
            FleetPlan(devices=8, injections_per_device=4),
            FleetPlan(devices=8, alloc_ops=13),
            FleetPlan(devices=8, trace_jit=False),
        ]
        prints = {p.fingerprint() for p in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)

    def test_round_trip_preserves_fingerprint(self):
        plan = FleetPlan(devices=5, shard_size=2, seed=7)
        assert FleetPlan.from_dict(plan.to_dict()).fingerprint() == (
            plan.fingerprint()
        )

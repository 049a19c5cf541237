"""The fleet plan: which devices exist, and who runs them.

A plan is pure data — device count, shard size, the fleet seed and the
per-device workload knobs — and everything else is derived from it
deterministically: per-device seeds, shard assignment, and the
fingerprint that pins a checkpoint directory to exactly one plan (a
``--resume`` against a different plan must be refused, not silently
merged).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import List, Optional

#: Mixes the device index into the fleet seed (Weyl constant — any odd
#: 32-bit multiplier works; fixed forever so committed results hold).
_SEED_STRIDE = 0x9E3779B1


def device_seed(fleet_seed: int, device_id: int) -> int:
    """The per-device RNG seed: decorrelated, deterministic, stable."""
    return (fleet_seed ^ (device_id * _SEED_STRIDE)) & 0x7FFF_FFFF


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of the fleet."""

    shard_id: int
    device_ids: "tuple[int, ...]"
    fleet_seed: int
    injections_per_device: int
    alloc_ops: int
    trace_jit: bool

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "device_ids": list(self.device_ids),
            "fleet_seed": self.fleet_seed,
            "injections_per_device": self.injections_per_device,
            "alloc_ops": self.alloc_ops,
            "trace_jit": self.trace_jit,
        }

    @staticmethod
    def from_dict(data: dict) -> "ShardSpec":
        return ShardSpec(
            shard_id=data["shard_id"],
            device_ids=tuple(data["device_ids"]),
            fleet_seed=data["fleet_seed"],
            injections_per_device=data["injections_per_device"],
            alloc_ops=data["alloc_ops"],
            trace_jit=data["trace_jit"],
        )


@dataclass(frozen=True)
class FleetPlan:
    """The whole fleet, before anything runs."""

    devices: int
    shard_size: int = 2
    seed: int = 20260807
    injections_per_device: int = 3
    alloc_ops: int = 12
    trace_jit: bool = True

    def __post_init__(self) -> None:
        if self.devices <= 0:
            raise ValueError("a fleet needs at least one device")
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")

    # ------------------------------------------------------------------

    def shards(self) -> List[ShardSpec]:
        """Contiguous device slices, one ShardSpec per worker launch."""
        out: List[ShardSpec] = []
        for shard_id, lo in enumerate(range(0, self.devices, self.shard_size)):
            ids = tuple(range(lo, min(lo + self.shard_size, self.devices)))
            out.append(
                ShardSpec(
                    shard_id=shard_id,
                    device_ids=ids,
                    fleet_seed=self.seed,
                    injections_per_device=self.injections_per_device,
                    alloc_ops=self.alloc_ops,
                    trace_jit=self.trace_jit,
                )
            )
        return out

    def to_dict(self) -> dict:
        return {
            "devices": self.devices,
            "shard_size": self.shard_size,
            "seed": self.seed,
            "injections_per_device": self.injections_per_device,
            "alloc_ops": self.alloc_ops,
            "trace_jit": self.trace_jit,
        }

    @staticmethod
    def from_dict(data: dict) -> "FleetPlan":
        return FleetPlan(
            devices=data["devices"],
            shard_size=data["shard_size"],
            seed=data["seed"],
            injections_per_device=data["injections_per_device"],
            alloc_ops=data["alloc_ops"],
            trace_jit=data["trace_jit"],
        )

    def fingerprint(self) -> str:
        """A stable digest of the plan (checkpoint-compatibility key)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


#: Devices in the stock plan behind ``BENCH_fleet.json`` and ``OBS_slo.json``.
STOCK_DEVICES = 8


def committed_plan(committed: Optional[dict]) -> FleetPlan:
    """The plan a committed fleet report records, else the stock plan.

    Both committed fleet reports carry their plan, so regenerating one
    reruns exactly the plan it was made from; to change the plan, edit
    the ``plan`` block and refresh.
    """
    if committed is None:
        return FleetPlan(devices=STOCK_DEVICES)
    return FleetPlan.from_dict(committed["plan"])

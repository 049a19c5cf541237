"""The fleet plan: which devices exist, and what each one runs.

A plan is pure data — device count, the fleet seed and the per-device
workload knobs — and everything else is derived from it
deterministically: the device specs (with their per-device seeds) and
the fingerprint that both committed fleet reports
(``BENCH_fleet.json`` and ``OBS_slo.json``) record as the identity of
the plan they were made from.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import List, Optional

from .device import DeviceSpec


@dataclass(frozen=True)
class FleetPlan:
    """The whole fleet, before anything runs."""

    devices: int
    seed: int = 20260807
    injections_per_device: int = 3
    alloc_ops: int = 12

    def __post_init__(self) -> None:
        for name in ("devices", "injections_per_device", "alloc_ops"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )

    # ------------------------------------------------------------------

    def device_specs(self) -> List[DeviceSpec]:
        """Every device of the fleet, in device-id order."""
        return [
            DeviceSpec(
                device_id=device_id,
                fleet_seed=self.seed,
                injections=self.injections_per_device,
                alloc_ops=self.alloc_ops,
            )
            for device_id in range(self.devices)
        ]

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "FleetPlan":
        """The plan a ``plan`` block records; unknown keys are refused."""
        names = [field.name for field in fields(FleetPlan)]
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ValueError(f"unknown fleet plan keys: {', '.join(unknown)}")
        return FleetPlan(**{name: data[name] for name in names})

    def fingerprint(self) -> str:
        """A stable digest of the plan: the identity the reports record."""
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

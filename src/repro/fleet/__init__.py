"""Device-fleet reproduction: many seeded devices, one merged report.

``repro.fleet`` scales the reproduction from one simulated device to a
*fleet*: N independent :class:`~repro.machine.System` instances, each
driven by a seeded fault-campaign slice plus a cross-compartment
allocation workload and a CPU kernel, run serially in process
and folded into one report.

The layering, bottom-up:

* :mod:`repro.fleet.device` — one device's deterministic metric sample
  (throughput, call-latency percentiles, revocation duty cycle, fault
  outcomes) from a per-device seed;
* :mod:`repro.fleet.plan` — the fleet plan: the device specs with
  their per-device seeds, and the fingerprint both committed fleet
  reports record as the plan's identity;
* :mod:`repro.fleet.merge` — the fold of one device list into the
  ``BENCH_fleet.json`` report and the ``OBS_slo.json`` aggregate.

Determinism contract: everything in the merged report derives from
simulated cycles and seeded RNG streams — never wall clock — so the
same plan always produces the same bytes.
"""

from .device import DeviceSpec, run_device
from .merge import fleet_report, fleet_rollup, merge_report, slo_document
from .plan import FleetPlan

__all__ = [
    "DeviceSpec",
    "FleetPlan",
    "fleet_report",
    "fleet_rollup",
    "merge_report",
    "run_device",
    "slo_document",
]

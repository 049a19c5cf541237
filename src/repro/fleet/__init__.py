"""Resilient device-fleet orchestration.

``repro.fleet`` scales the reproduction from one simulated device to a
*fleet*: N independent :class:`~repro.machine.System` instances, each
driven by a seeded fault-campaign slice plus a cross-compartment
allocation workload and a tiered-CPU kernel, sharded across a
supervised process pool.

The layering, bottom-up:

* :mod:`repro.fleet.device` — one device's deterministic metric sample
  (throughput, call-latency percentiles, revocation duty cycle, fault
  outcomes) from a per-device seed;
* :mod:`repro.fleet.plan` — the fleet plan: device list, shard
  assignment, per-device seeds, and a fingerprint that pins a
  checkpoint directory to one plan;
* :mod:`repro.fleet.shard` / :mod:`repro.fleet.worker` — a shard runs
  a contiguous slice of devices; the worker is the subprocess entry
  point (heartbeat file, atomic result write, chaos hooks for tests);
* :mod:`repro.fleet.supervisor` — launches workers, watches wall-clock
  deadlines and heartbeats, retries crashed/hung shards with seeded
  exponential backoff, quarantines persistent failures, and records
  every intervention in :class:`~repro.obs.fleet.FleetHealthStats`;
* :mod:`repro.fleet.checkpoint` — per-shard atomic result files, so an
  interrupted run resumes from completed shards;
* :mod:`repro.fleet.merge` — the deterministic sorted merge into the
  ``BENCH_fleet.json`` report (byte-identical for any worker count,
  any interleaving, and across a resume).

Determinism contract: everything in the merged report derives from
simulated cycles and seeded RNG streams — never wall clock — so a
serial in-process run, a 4-worker pool, and a crashed-then-resumed run
all produce the same bytes.  Orchestrator *health* (retries, timeouts,
quarantines) is wall-clock-dependent by nature and therefore lives in
a separate report, never in the byte-stable artifact.
"""

from .checkpoint import CheckpointStore
from .device import DeviceSpec, run_device
from .merge import fleet_report, merge_report, slo_document
from .plan import FleetPlan, ShardSpec
from .procutil import WorkerProcess
from .retry import RetryPolicy
from .shard import run_shard
from .supervisor import FleetInterrupted, FleetSupervisor

__all__ = [
    "CheckpointStore",
    "DeviceSpec",
    "FleetInterrupted",
    "FleetPlan",
    "FleetSupervisor",
    "RetryPolicy",
    "ShardSpec",
    "WorkerProcess",
    "fleet_report",
    "merge_report",
    "run_device",
    "run_shard",
    "slo_document",
]

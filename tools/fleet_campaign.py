#!/usr/bin/env python3
"""Run a supervised device-fleet campaign and write ``BENCH_fleet.json``.

Usage (from the repository root)::

    PYTHONPATH=src python tools/fleet_campaign.py
        [--devices N] [--shard-size K] [--seed N] [--jobs J]
        [--timeout S] [--heartbeat-timeout S] [--max-attempts N]
        [--checkpoint-dir DIR] [--resume]
        [--output BENCH_fleet.json] [--health FILE]

The fleet shards N simulated devices across J supervised worker
processes.  Results checkpoint per shard as they complete; a run
killed mid-way (crash, SIGTERM, host OOM) is finished by rerunning
with ``--resume`` — already-completed shards are not recomputed, and
the merged report is **byte-identical** to an undisturbed run for any
``--jobs`` value, because every number in it derives from simulated
cycles and seeded RNG streams.

Orchestrator health (worker launches, crashes, timeouts, retries,
quarantined shards) is wall-clock territory, so it is written to the
``--health`` sidecar and printed — never into the byte-stable report.
Quarantined shards additionally appear in the report's ``degraded``
list: a partial fleet yields a complete, annotated report.

Two observability artifacts ride along:

* **Live streaming** — workers piggyback cumulative telemetry deltas
  on their heartbeat files; the supervisor folds them into a live
  fleet aggregate and progress lines (devices done, calls, latency
  p50/p99, escaped count) stream to stderr *during* the run.
* **Merged telemetry report** (``--telemetry-out``, default
  ``fleet-telemetry.json``) — the deterministic fleet aggregate from
  :func:`repro.obs.pipeline.fleet_rollup` plus the supervisor's
  :class:`~repro.obs.fleet.FleetHealthStats` as a first-class
  ``fleet_health`` metric group under ``host`` — emitted from the very
  object that writes the ``health.json`` sidecar, so the two can never
  disagree.  The ``host`` group is wall-clock territory and therefore
  lives outside the byte-stable ``aggregate`` (which is identical for
  any ``--jobs`` value).

The reference run is the committed file: the ``fleet`` and ``slo``
entries of ``tools/artifacts.py`` rerun the committed plan in-process,
and ``tools/artifacts.py check fleet slo --results-from DIR`` compares
a supervised run's checkpointed shards against both committed reports
byte for byte.

Chaos flags (tests/CI only): ``--chaos-crash I`` / ``--chaos-hang I``
make shard I fail once and succeed on retry; ``--chaos-stubborn I``
makes it fail every attempt, exercising quarantine.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.artifact import render_json  # noqa: E402
from repro.fleet import (  # noqa: E402
    CheckpointStore,
    FleetInterrupted,
    FleetPlan,
    FleetSupervisor,
    RetryPolicy,
    merge_report,
)
from repro.fleet.plan import STOCK_DEVICES  # noqa: E402
from repro.obs.fleet import health_metric_group  # noqa: E402
from repro.obs.pipeline import fleet_rollup  # noqa: E402

#: Exit codes: distinguish "interrupted, resume me" from real failure.
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--devices", type=int, default=STOCK_DEVICES)
    parser.add_argument("--shard-size", type=int, default=2)
    parser.add_argument("--seed", type=int, default=20260807)
    parser.add_argument(
        "--injections", type=int, default=3,
        help="fault injections per device (default: %(default)s)",
    )
    parser.add_argument(
        "--alloc-ops", type=int, default=12,
        help="allocation ops per device (default: %(default)s)",
    )
    parser.add_argument("--jobs", "-j", type=int, default=1)
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-shard wall-clock timeout in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=None,
        help="kill a worker whose heartbeat is staler than this (seconds)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per shard before quarantine (default: %(default)s)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="per-shard checkpoint directory (default: a temp dir, "
        "which forfeits --resume)",
    )
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--output", "-o", default="BENCH_fleet.json")
    parser.add_argument(
        "--health", default=None,
        help="orchestrator health JSON (default: <checkpoint-dir>/health.json)",
    )
    parser.add_argument(
        "--telemetry-out", default="fleet-telemetry.json",
        help="merged fleet telemetry report (aggregate + host health; "
        "empty string disables; default: %(default)s)",
    )
    parser.add_argument(
        "--no-stream", action="store_true",
        help="suppress the live telemetry progress lines",
    )
    parser.add_argument("--chaos-crash", type=int, action="append", default=[])
    parser.add_argument("--chaos-hang", type=int, action="append", default=[])
    parser.add_argument(
        "--chaos-stubborn", type=int, action="append", default=[]
    )
    return parser


def _write_chaos_tokens(chaos_dir: str, args) -> bool:
    any_token = False
    for kind, ids in (
        ("crash", args.chaos_crash),
        ("hang", args.chaos_hang),
        ("stubborn", args.chaos_stubborn),
    ):
        for shard_id in ids:
            with open(os.path.join(chaos_dir, f"{kind}-{shard_id}"), "w"):
                pass
            any_token = True
    return any_token


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.resume and args.checkpoint_dir is None:
        print("--resume needs --checkpoint-dir", file=sys.stderr)
        return EXIT_USAGE

    plan = FleetPlan(
        devices=args.devices,
        shard_size=args.shard_size,
        seed=args.seed,
        injections_per_device=args.injections,
        alloc_ops=args.alloc_ops,
    )

    tmp_ctx = None
    ckpt_dir = args.checkpoint_dir
    if ckpt_dir is None:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="fleet-ckpt-")
        ckpt_dir = tmp_ctx.name
    chaos_dir = None
    chaos_tmp = tempfile.TemporaryDirectory(prefix="fleet-chaos-")
    if _write_chaos_tokens(chaos_tmp.name, args):
        chaos_dir = chaos_tmp.name

    def stream_progress(summary: dict) -> None:
        print(
            "  [stream] "
            f"{summary['devices_done']}/{plan.devices} devices "
            f"({summary['shards_completed']}/{summary['shards_total']} "
            f"shards done), {summary['calls']} calls, "
            f"latency p50/p99 ≈ {summary['latency_p50']}/"
            f"{summary['latency_p99']} cyc, "
            f"{summary['injections']} injections / "
            f"{summary['escaped']} escaped",
            file=sys.stderr,
        )

    supervisor = FleetSupervisor(
        plan,
        CheckpointStore(ckpt_dir),
        jobs=max(1, args.jobs),
        timeout=args.timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        retry=RetryPolicy(max_attempts=args.max_attempts, seed=args.seed),
        chaos_dir=chaos_dir,
        log=lambda msg: print(f"  {msg}", file=sys.stderr),
        progress=None if args.no_stream else stream_progress,
    )

    def on_signal(signum, frame):
        supervisor.request_stop()

    old_term = signal.signal(signal.SIGTERM, on_signal)
    old_int = signal.signal(signal.SIGINT, on_signal)
    try:
        results, quarantined = supervisor.run(resume=args.resume)
    except FleetInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        _write_health(args, ckpt_dir, supervisor.health.to_dict())
        return EXIT_INTERRUPTED
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
        chaos_tmp.cleanup()
        if tmp_ctx is not None:
            tmp_ctx.cleanup()

    health = supervisor.health.to_dict()
    _write_health(args, ckpt_dir if args.checkpoint_dir else None, health)

    report = merge_report(plan, results, quarantined)
    _write_telemetry(args, plan, results, quarantined, supervisor.health)
    payload = render_json(report)
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.output}")

    agg = report["aggregates"]
    print(
        f"{agg['devices_reporting']} device(s) reporting, "
        f"{agg['devices_degraded']} degraded; "
        f"{agg['faults']['injections']} injections, "
        f"{agg['faults']['escaped']} ESCAPED; "
        f"call latency p50/p99 = {agg['latency']['p50']}/{agg['latency']['p99']} cycles; "
        f"revocation duty cycle {agg['revocation_duty_cycle']}"
    )
    print(
        "orchestrator health: "
        f"{health['worker_launches']} launches, "
        f"{health['worker_crashes']} crashes, "
        f"{health['worker_timeouts'] + health['heartbeat_timeouts']} timeouts, "
        f"{health['retries']} retries, "
        f"{health['quarantined']} quarantined"
    )
    return 0


def _write_telemetry(args, plan, results, quarantined, health_stats) -> None:
    """The merged telemetry report: byte-stable aggregate + host group."""
    if not args.telemetry_out:
        return
    document = {
        "schema": 1,
        "aggregate": fleet_rollup(plan, results, quarantined),
        "host": health_metric_group(health_stats),
    }
    with open(args.telemetry_out, "w") as fh:
        fh.write(render_json(document))
    print(f"wrote {args.telemetry_out}")


def _write_health(args, ckpt_dir, health: dict) -> None:
    path = args.health
    if path is None and ckpt_dir is not None:
        path = os.path.join(ckpt_dir, "health.json")
    if path is None:
        return
    with open(path, "w") as fh:
        fh.write(render_json(health))


if __name__ == "__main__":
    raise SystemExit(main())

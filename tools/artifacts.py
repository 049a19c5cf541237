#!/usr/bin/env python3
"""The artifact gate: one table of committed artifacts, one loop.

Usage (from the repository root)::

    PYTHONPATH=src python tools/artifacts.py check [NAME ...] [--jobs N]
    PYTHONPATH=src python tools/artifacts.py refresh NAME ... [--jobs N]

Each :data:`ARTIFACTS` entry names one committed file, the producer
that regenerates it, and the absolute claims the file must satisfy
whatever its bytes (zero escaped injections, zero-copy at least 2x
cheaper at scale, every SLO objective met, the paper's shapes in the
Section-7 tables, ...).

``check`` (every entry, or the named ones) reads the committed file,
checks its claims, regenerates it and compares the bytes.  On drift it
prints the first diverging path, the entry's own diagnosis and any
claim the fresh run breaks; every failure ends with the one-line
command that reproduces the file.  One timing line per artifact.
``BENCH_simspeed.json`` records host seconds, which no rerun
reproduces byte for byte, so its entry allows each workload 20 % over
the committed time, scaled by a host-speed probe, instead.

``refresh`` rewrites the named files after an intentional change and
reports any claim the new file breaks.

Exit status: 0 all green; 1 a claim failed or a file drifted; 2 a
committed file is missing or unreadable, or a name is unknown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.analysis.simspeed import (  # noqa: E402
    REQUIRED_WORKLOADS,
    check_speed,
    speed_report,
)
from repro.analysis.tables import bench_tables, tables_claims  # noqa: E402
from repro.artifact import Inputs, render_json  # noqa: E402
from repro.faultinject.campaign import campaign_document  # noqa: E402
from repro.fleet import fleet_report, slo_document  # noqa: E402
from repro.iot.loadgen import net_sweep  # noqa: E402
from repro.obs.profile import diff_hot  # noqa: E402
from repro.obs.workload import fleet_profile  # noqa: E402
from repro.verify import audit_document  # noqa: E402

Lines = List[str]


@dataclass(frozen=True)
class Artifact:
    """One committed file and everything needed to gate it."""

    name: str
    #: Path of the committed file, relative to the repository root.
    path: str
    #: Regenerates the file's content from :class:`Inputs`.
    produce: Callable[[Inputs], object]
    #: What must hold for any committable version: document -> problems.
    claims: Callable[[object], Lines]
    #: Whether the producer spreads its work over ``--jobs`` workers.
    parallel: bool = False
    #: Explains a drift beyond its first diverging path.
    diagnose: Optional[Callable[[object, object], Lines]] = None
    #: Host-timed files only: a tolerance gate replacing byte identity.
    gate: Optional[Callable[[object], Lines]] = None

    @property
    def reproduce(self) -> str:
        return f"make refresh NAME={self.name}"


# ----------------------------------------------------------------------
# Claims and diagnoses
# ----------------------------------------------------------------------


def replay_command(index, seed) -> str:
    """The command that replays one fault injection alone."""
    return (
        f"PYTHONPATH=src python tools/fault_campaign.py "
        f"--reproduce {index} --seed {seed}"
    )


def fault_claims(doc: dict) -> Lines:
    """Zero escaped injections; every escape comes with its replay."""
    escaped = doc.get("outcomes", {}).get("escaped")
    details = doc.get("escaped_details", [])
    if escaped == 0 and not details:
        return []
    seed = doc.get("seed")
    return [f"{escaped} escaped injections (must be 0)"] + [
        f"escape #{entry.get('index')} [fault class "
        f"{entry.get('fault_class')}, seed {seed}] {entry.get('scenario')}\n"
        f"    replay: {replay_command(entry.get('index'), seed)}"
        for entry in details
    ]


def fault_diagnosis(committed: dict, fresh: dict) -> Lines:
    before = committed.get("by_class", {})
    return [
        f"fault class {name}: committed {before.get(name)}, fresh run "
        f"{counts}; inspect one injection with: "
        f"{replay_command('INDEX', fresh['seed'])}"
        for name, counts in sorted(fresh["by_class"].items())
        if before.get(name) != counts
    ]


def fleet_claims(doc: dict) -> Lines:
    """Zero escapes across the fleet."""
    escaped = doc.get("aggregates", {}).get("faults", {}).get("escaped")
    if escaped != 0:
        return [f"{escaped} escaped injections (must be 0)"]
    return []


def fleet_diagnosis(committed: dict, fresh: dict) -> Lines:
    """The command that reruns the first diverging device alone.

    It prints the device's entry as the report records it: the raw
    latency samples, which only feed the fleet-wide percentiles, are
    dropped.
    """
    plan = fresh["plan"]
    for before, now in zip(committed.get("devices", []), fresh["devices"]):
        if before != now:
            spec = (
                f"DeviceSpec({now['device']}, {plan['seed']}, "
                f"injections={plan['injections_per_device']}, "
                f"alloc_ops={plan['alloc_ops']})"
            )
            return [
                "single-device reproduction: PYTHONPATH=src python -c "
                "\"from repro.artifact import render_json; "
                "from repro.fleet import DeviceSpec, run_device; "
                f"d = run_device({spec}); d.pop('latency_samples'); "
                "print(render_json(d))\""
            ]
    return []


def slo_claims(doc: dict) -> Lines:
    """Every service objective holds (unknown rules have failed closed)."""
    slo = doc.get("slo", {})
    problems = []
    for result in slo.get("results", []):
        if result.get("ok"):
            continue
        params = " ".join(
            f"{key}={value}" for key, value in result.get("params", {}).items()
        )
        line = (
            f"objective {result.get('rule')} ({params}) violated: observed "
            f"{result.get('observed')} vs bound {result.get('bound')}"
        )
        if result.get("detail"):
            line += f" — {result['detail']}"
        problems.append(line)
    if not slo.get("passed") and not problems:
        problems.append("SLO verdict is passed: false")
    return problems


#: Copying must cost at least this many times the zero-copy stack
#: cycles per packet at every sweep point with at least
#: :data:`SCALE_CONNECTIONS` concurrent sessions.
MIN_STACK_RATIO = 2.0
SCALE_CONNECTIONS = 1024


def net_claims(doc: dict) -> Lines:
    """Zero-copy stays >= 2x cheaper in stack cycles at scale."""
    at_scale = [
        row for row in doc.get("comparison", [])
        if row["connections"] >= SCALE_CONNECTIONS
    ]
    if not at_scale:
        return [
            f"sweep has no point with >= {SCALE_CONNECTIONS} connections; "
            "the at-scale claim is unverifiable"
        ]
    return [
        f"at {row['connections']} connections the copy/zero-copy "
        f"stack-cycle ratio is {row['stack_cycles_ratio']} "
        f"(floor: {MIN_STACK_RATIO})"
        for row in at_scale
        if row["stack_cycles_ratio"] < MIN_STACK_RATIO
    ]


def audit_claims(doc: dict) -> Lines:
    """Zero violations, a clean policy, and a consistent crosscheck."""
    problems = []
    for name, result in doc["images"].items():
        for violation in result["violations"]:
            problems.append(
                f"image {name}: {violation['category']} violation at "
                f"index {violation['index']} ({violation['mnemonic']}): "
                f"{violation['message']}"
            )
    for violation in doc["policy"]["violations"]:
        problems.append(
            f"policy {violation['rule']}: {violation['subject']}: "
            f"{violation['message']}"
        )
    crosscheck = doc["crosscheck"]
    if not crosscheck["consistent"]:
        problems.append(
            "crosscheck: a statically-clean mutant escaped dynamically "
            "(the static-auditability claim is falsified)"
        )
    if crosscheck["statically_flagged"] < 1:
        problems.append(
            "crosscheck: no code-splice mutant was statically flagged"
        )
    return problems


#: Hot PCs compared when the fleet profile drifts.
PROFILE_TOP = 10


def profile_claims(doc: dict) -> Lines:
    """Per-PC hits account for every retired instruction."""
    hits = sum(entry["hits"] for entry in doc.get("pcs", {}).values())
    if hits != doc.get("retired"):
        return [
            f"hot-PC hits sum to {hits}, but {doc.get('retired')} "
            "instructions retired"
        ]
    return []


def profile_diagnosis(committed: dict, fresh: dict) -> Lines:
    return diff_hot(committed, fresh, PROFILE_TOP) or [
        f"(no top-{PROFILE_TOP} churn; drift is in the cold tail or totals)"
    ]


#: Speed floors, an order of magnitude below the committed numbers, so
#: only a collapse fails them, never host noise.  The seed's ALU-loop
#: MIPS was taken on the interpretive path (``Tier.INTERP``).
MIN_ALU_MIPS = 0.03
MAX_TABLE3_SECONDS = 30.0
MIN_ALU_SPEEDUP_VS_SEED = 1.5


def simspeed_claims(doc: dict) -> Lines:
    """The baseline times every workload the gate must cover, and no
    workload has collapsed below its floor."""
    workloads = doc.get("workloads", {})
    problems = [
        f"workload {name} is missing (the speed gate must cover it)"
        for name in REQUIRED_WORKLOADS
        if name not in workloads
    ]
    mips = workloads.get("alu_loop", {}).get("mips", 0.0)
    if mips <= MIN_ALU_MIPS:
        problems.append(
            f"alu_loop runs at {mips} MIPS (floor: {MIN_ALU_MIPS})"
        )
    seconds = workloads.get("table3_iter1", {}).get("seconds", float("inf"))
    if seconds >= MAX_TABLE3_SECONDS:
        problems.append(
            f"table3_iter1 takes {seconds} s (ceiling: {MAX_TABLE3_SECONDS})"
        )
    speedup = doc.get("speedup_vs_seed", {}).get("alu_loop", 0.0)
    if speedup <= MIN_ALU_SPEEDUP_VS_SEED:
        problems.append(
            f"alu_loop is {speedup}x the seed's interpretive MIPS "
            f"(floor: {MIN_ALU_SPEEDUP_VS_SEED})"
        )
    return problems


#: In check order.  The host-timed simspeed entry goes first, so it
#: measures in a fresh process on a host the parallel producers have
#: not just loaded (its committed times were taken the same way).
ARTIFACTS = (
    Artifact("simspeed", "BENCH_simspeed.json", speed_report,
             simspeed_claims, gate=check_speed),
    Artifact("faults", "BENCH_faults.json", campaign_document, fault_claims,
             diagnose=fault_diagnosis),
    Artifact("fleet", "BENCH_fleet.json", fleet_report, fleet_claims,
             diagnose=fleet_diagnosis),
    Artifact("slo", "OBS_slo.json", slo_document, slo_claims),
    Artifact("net", "BENCH_net.json", net_sweep, net_claims, parallel=True),
    Artifact("audit", "AUDIT_baseline.json", audit_document, audit_claims),
    Artifact("profile", "OBS_fleet_profile.json", fleet_profile,
             profile_claims, diagnose=profile_diagnosis),
    Artifact("tables", "bench_output_tables.txt", bench_tables,
             tables_claims, parallel=True),
)


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------


def first_divergence(committed, fresh, path: str = "") -> str:
    """Where two documents part ways, or ``""`` when they agree.

    JSON values yield a dotted path (``aggregates.faults.escaped:
    committed 0, fresh run 2``); text files yield the first differing
    line.
    """
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
            here = f"{path}.{key}" if path else str(key)
            if key not in committed:
                return f"{here}: only in fresh run"
            if key not in fresh:
                return f"{here}: only in committed file"
            found = first_divergence(committed[key], fresh[key], here)
            if found:
                return found
        return ""
    if isinstance(committed, list) and isinstance(fresh, list):
        for i, (before, now) in enumerate(zip(committed, fresh)):
            found = first_divergence(before, now, f"{path}[{i}]")
            if found:
                return found
        if len(committed) != len(fresh):
            return f"{path}: length {len(committed)} vs {len(fresh)}"
        return ""
    if isinstance(committed, str) and isinstance(fresh, str) and not path:
        before, now = committed.splitlines(), fresh.splitlines()
        for number, (old, new) in enumerate(zip(before, now), 1):
            if old != new:
                return f"line {number}: committed {old!r}, fresh run {new!r}"
        if len(before) != len(now):
            return f"length: {len(before)} lines vs {len(now)}"
        return ""
    if committed != fresh:
        return f"{path}: committed {committed!r}, fresh run {fresh!r}"
    return ""


def _render(doc) -> str:
    return doc if isinstance(doc, str) else render_json(doc)


def _read(path: str):
    with open(path) as fh:
        text = fh.read()
    return text if path.endswith(".txt") else json.loads(text)


def _inputs_for(entry: Artifact, inputs: Inputs, committed) -> Inputs:
    jobs = inputs.jobs if entry.parallel else 1
    return replace(inputs, committed=committed, jobs=jobs)


def _timing(entry: Artifact, inputs: Inputs, status: str, start: float) -> None:
    jobs = f"  ({inputs.jobs} jobs)" if entry.parallel else ""
    print(
        f"{entry.name:<9} {status:<5} {time.perf_counter() - start:7.2f} s"
        f"  {entry.path}{jobs}"
    )


def _report(entry: Artifact, problems: Lines) -> None:
    for problem in problems:
        print(f"  {entry.name}: {problem}", file=sys.stderr)
    if problems:
        print(f"  {entry.name}: reproduce: {entry.reproduce}", file=sys.stderr)


def check(entry: Artifact, inputs: Inputs) -> int:
    """Gate one artifact; returns its exit status."""
    start = time.perf_counter()
    try:
        committed = _read(os.path.join(inputs.root, entry.path))
    except (OSError, ValueError) as exc:
        _timing(entry, inputs, "ERROR", start)
        print(f"  {entry.name}: cannot read {entry.path}: {exc}",
              file=sys.stderr)
        print(f"  {entry.name}: reproduce: {entry.reproduce}", file=sys.stderr)
        return 2
    problems = []
    try:
        problems += [f"committed file: {p}" for p in entry.claims(committed)]
        if entry.gate is not None:
            problems += entry.gate(committed)
        else:
            fresh = entry.produce(_inputs_for(entry, inputs, committed))
            if _render(fresh) != _render(committed):
                where = first_divergence(committed, fresh)
                problems.append(f"drifted at {where or '(byte level only)'}")
                if entry.diagnose is not None:
                    problems += entry.diagnose(committed, fresh)
                problems += [f"fresh run: {p}" for p in entry.claims(fresh)]
    except Exception as exc:  # one broken entry must not stop the others
        problems.append(f"failed: {type(exc).__name__}: {exc}")
        problems.append(traceback.format_exc().rstrip())
    _timing(entry, inputs, "FAIL" if problems else "ok", start)
    _report(entry, problems)
    return 1 if problems else 0


def refresh(entry: Artifact, inputs: Inputs) -> int:
    """Rewrite one artifact from its producer; 1 if it breaks a claim."""
    start = time.perf_counter()
    path = os.path.join(inputs.root, entry.path)
    try:
        committed = _read(path)
    except (OSError, ValueError):
        committed = None
    fresh = entry.produce(_inputs_for(entry, inputs, committed))
    with open(path, "w") as fh:
        fh.write(_render(fresh))
    _timing(entry, inputs, "wrote", start)
    problems = entry.claims(fresh)
    _report(entry, problems)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=("check", "refresh"))
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help="artifacts to act on (check default: all): "
        + ", ".join(entry.name for entry in ARTIFACTS),
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=os.cpu_count() or 1,
        help="worker processes for parallel producers; the bytes do not "
        "depend on it (default: CPU count)",
    )
    args = parser.parse_args(argv)

    by_name = {entry.name: entry for entry in ARTIFACTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        print(
            f"no such artifact: {', '.join(unknown)} "
            f"(known: {', '.join(by_name)})",
            file=sys.stderr,
        )
        return 2
    if args.command == "refresh" and not args.names:
        print(
            f"refresh needs a NAME (one of: {', '.join(by_name)})",
            file=sys.stderr,
        )
        return 2

    entries = [by_name[name] for name in args.names] or list(ARTIFACTS)
    inputs = Inputs(root=ROOT, jobs=max(1, args.jobs))
    action = check if args.command == "check" else refresh
    start = time.perf_counter()
    status = max(action(entry, inputs) for entry in entries)
    print(
        f"{len(entries)} artifact(s) in {time.perf_counter() - start:.2f} s: "
        + ("ok" if status == 0 else "FAILED")
    )
    return status


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Replay one injection of a seeded fault-injection campaign.

Usage (from the repository root)::

    PYTHONPATH=src python tools/fault_campaign.py --reproduce INDEX [--seed N]

The campaign is deterministic, so injection *k* of a ``(seed, total)``
campaign is injection *k* of any campaign with the same seed and
``total > k``.  This replays injection ``INDEX`` alone and prints its
full record — the debugging entry point that every escape reported by
the ``faults`` artifact gate hands you.  The committed 10,000-injection
campaign itself is ``BENCH_faults.json`` (``make refresh NAME=faults``).

Exit status 1 if the injection escapes, 2 on a negative index.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.faultinject import run_campaign  # noqa: E402
from repro.faultinject.campaign import DEFAULT_SEED  # noqa: E402


def reproduce(index: int, seed: int) -> int:
    """Replay injection ``index`` of the seeded stream and print it."""
    if index < 0:
        print("--reproduce index must be >= 0", file=sys.stderr)
        return 2
    result = run_campaign(total=index + 1, seed=seed)
    record = result.records[index]
    print(
        f"injection #{record.index} (seed {seed})\n"
        f"  fault class:  {record.fault_class.value}\n"
        f"  scenario:     {record.scenario}\n"
        f"  outcome:      {record.outcome.value}\n"
        f"  detail:       {record.detail or '(none)'}\n"
        f"  wrong result: {record.wrong_result}"
    )
    return 1 if record.outcome.value == "escaped" else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--reproduce",
        type=int,
        required=True,
        metavar="INDEX",
        help="the injection to replay (exit 1 if it escapes)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="campaign RNG seed (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    return reproduce(args.reproduce, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())

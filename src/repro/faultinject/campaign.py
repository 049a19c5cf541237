"""Campaign orchestration: many seeded injections, one verdict.

A campaign interleaves the fault classes round-robin so a truncated run
still covers every class, and draws every random choice from one seeded
stream — the same ``(seed, total)`` pair reproduces the same records
bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence

from .engine import FaultInjector
from .outcomes import CampaignResult, FaultClass

#: Default seed for committed results — arbitrary but fixed forever.
DEFAULT_SEED = 20260806

#: Injections in the committed ``BENCH_faults.json`` campaign.
FULL_CAMPAIGN = 10_000


def run_campaign(
    total: int,
    seed: int = DEFAULT_SEED,
    classes: Sequence[FaultClass] = tuple(FaultClass),
) -> CampaignResult:
    """Run ``total`` injections spread round-robin over ``classes``."""
    if total <= 0:
        raise ValueError("campaign needs a positive injection count")
    if not classes:
        raise ValueError("campaign needs at least one fault class")
    injector = FaultInjector(seed)
    result = CampaignResult(seed=seed)
    for index in range(total):
        fault_class = classes[index % len(classes)]
        result.records.append(injector.inject(index, fault_class))
    return result


def campaign_document(inputs=None) -> dict:
    """The committed ``BENCH_faults.json``: the full seeded campaign."""
    return run_campaign(total=FULL_CAMPAIGN, seed=DEFAULT_SEED).to_dict()

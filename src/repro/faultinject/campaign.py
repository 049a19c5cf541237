"""Campaign orchestration: many seeded injections, one verdict.

A campaign interleaves the fault classes round-robin so a truncated run
still covers every class, and draws every random choice from one seeded
stream — the same ``(seed, total)`` pair reproduces the same records
bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

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
    progress: Optional[Callable[[int, int], None]] = None,
    registry=None,
) -> CampaignResult:
    """Run ``total`` injections spread round-robin over ``classes``.

    ``progress`` (if given) is called with ``(done, total)`` every 500
    injections — campaign runs are long enough to want a heartbeat.

    ``registry`` (if given) is a
    :class:`~repro.obs.registry.MetricsRegistry`; the campaign counts
    injections by fault class and outcomes by verdict into labelled
    counters, so campaign progress shows up in the same snapshot/diff
    stream as the rest of the system.
    """
    if total <= 0:
        raise ValueError("campaign needs a positive injection count")
    if not classes:
        raise ValueError("campaign needs at least one fault class")
    injections = outcomes = None
    if registry is not None:
        injections = registry.counter(
            "faultinject.injections",
            "injections by fault class",
            labels=("fault_class",),
            replace=True,
        )
        outcomes = registry.counter(
            "faultinject.outcomes",
            "injection outcomes by verdict",
            labels=("outcome",),
            replace=True,
        )
    injector = FaultInjector(seed)
    result = CampaignResult(seed=seed)
    for index in range(total):
        fault_class = classes[index % len(classes)]
        record = injector.inject(index, fault_class)
        result.records.append(record)
        if injections is not None:
            injections.labels(fault_class=fault_class.value).inc()
            outcomes.labels(outcome=record.outcome.value).inc()
        if progress is not None and (index + 1) % 500 == 0:
            progress(index + 1, total)
    return result


def campaign_document(inputs=None) -> dict:
    """The committed ``BENCH_faults.json``: the full seeded campaign."""
    return run_campaign(total=FULL_CAMPAIGN, seed=DEFAULT_SEED).to_dict()

"""``repro.obs`` — the unified telemetry layer.

Two pillars, one facade:

* :class:`~repro.obs.span.SpanTracer` — compartment switches, error
  unwinds, malloc/free, revocation sweeps and thread scheduling as
  begin/end spans on the simulated cycle clock, exportable as
  Chrome/Perfetto ``trace_event`` JSON (:mod:`repro.obs.export`).
* :class:`~repro.obs.profile.CycleAttributor` /
  :class:`~repro.obs.profile.PCProfiler` — per-compartment and per-PC
  cycle attribution for ``make profile``.

The :class:`Telemetry` facade bundles the tracer and the attributor
over one core model.  Instrumented subsystems carry an ``obs``
attribute that defaults to ``None``; every instrumentation site is
guarded by a single ``is not None`` check, so a system built without
telemetry follows the seed's exact code path.  Counters are not a
pillar: each subsystem keeps its own in its ``stats`` object, and
readers read them there.

Beside them, :class:`~repro.obs.sketch.QuantileSketch` and
:mod:`repro.obs.slo` judge the fleet:
:func:`repro.fleet.merge.fleet_rollup` folds the device samples into
one aggregate, with call and packet latencies in sketches, and the SLO
engine evaluates the committed policy over it.
"""

from __future__ import annotations

from .export import trace_events, write_trace
from .sketch import QuantileSketch
from .slo import evaluate_slo, slo_report
from .profile import (
    CycleAttributor,
    PCProfiler,
    diff_hot,
    hot_from_dict,
    merge_profile_dicts,
    profile_to_dict,
    render_attribution,
    render_hot_pcs,
)
from .span import DEFAULT_RING_CAPACITY, Span, SpanTracer

__all__ = [
    "CycleAttributor",
    "DEFAULT_RING_CAPACITY",
    "PCProfiler",
    "QuantileSketch",
    "Span",
    "SpanTracer",
    "Telemetry",
    "diff_hot",
    "evaluate_slo",
    "hot_from_dict",
    "merge_profile_dicts",
    "profile_to_dict",
    "render_attribution",
    "render_hot_pcs",
    "slo_report",
    "trace_events",
    "write_trace",
]


class Telemetry:
    """Span tracer + cycle attributor over one core model's clock."""

    def __init__(self, core_model) -> None:
        self.core_model = core_model
        self.tracer = SpanTracer(lambda: core_model.cycles)
        self.attributor = CycleAttributor(core_model)

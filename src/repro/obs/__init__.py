"""``repro.obs`` — the unified telemetry layer.

Three pillars, one facade:

* :class:`~repro.obs.registry.MetricsRegistry` — every stat holder in
  the system (core model, bus, allocator, revokers, switcher,
  scheduler, watchdog, fault injector) registers into one queryable
  namespace with snapshot/diff semantics.
* :class:`~repro.obs.span.SpanTracer` — compartment switches, error
  unwinds, malloc/free, revocation sweeps and thread scheduling as
  begin/end spans on the simulated cycle clock, exportable as
  Chrome/Perfetto ``trace_event`` JSON (:mod:`repro.obs.export`).
* :class:`~repro.obs.profile.CycleAttributor` /
  :class:`~repro.obs.profile.PCProfiler` — per-compartment and per-PC
  cycle attribution for ``make profile``.

The :class:`Telemetry` facade bundles the three over one core model.
Instrumented subsystems carry an ``obs`` attribute that defaults to
``None``; every instrumentation site is guarded by a single ``is not
None`` check, so a system built without telemetry follows the seed's
exact code path.
"""

from __future__ import annotations

from .export import (
    export_fleet_trace,
    export_trace,
    fleet_trace_events,
    spans_to_trace_events,
    write_fleet_trace,
    write_trace,
)
from .fleet import FleetHealthStats, health_metric_group, register_fleet_health
from .pipeline import (
    FleetAggregator,
    device_telemetry,
    empty_telemetry,
    fleet_rollup,
    merge_telemetry,
    shard_telemetry,
)
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
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from .span import DEFAULT_RING_CAPACITY, Span, SpanTracer

__all__ = [
    "Counter",
    "CycleAttributor",
    "DEFAULT_RING_CAPACITY",
    "FleetAggregator",
    "FleetHealthStats",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PCProfiler",
    "QuantileSketch",
    "Span",
    "SpanTracer",
    "Telemetry",
    "device_telemetry",
    "diff_hot",
    "empty_telemetry",
    "evaluate_slo",
    "export_fleet_trace",
    "export_trace",
    "fleet_rollup",
    "fleet_trace_events",
    "health_metric_group",
    "hot_from_dict",
    "merge_profile_dicts",
    "merge_telemetry",
    "profile_to_dict",
    "register_fleet_health",
    "render_attribution",
    "render_hot_pcs",
    "shard_telemetry",
    "slo_report",
    "spans_to_trace_events",
    "write_fleet_trace",
    "write_trace",
]


class Telemetry:
    """Registry + tracer + attributor over one core model's clock."""

    def __init__(self, core_model, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        self.core_model = core_model
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(lambda: core_model.cycles, capacity=capacity)
        self.attributor = CycleAttributor(core_model)
        # Telemetry's own health metrics, and the allocation-size
        # distribution the heap instrumentation feeds.
        self.alloc_sizes = self.registry.histogram(
            "obs.alloc_bytes", "requested allocation sizes"
        )
        self.registry.register_scalar("obs.spans", lambda: len(self.tracer))
        self.registry.register_scalar(
            "obs.spans_dropped", lambda: self.tracer.dropped
        )

    @property
    def frequency_mhz(self) -> float:
        return self.core_model.params.frequency_mhz

    def export_trace(self, path: str, metadata=None) -> int:
        """Write the tracer's ring as Perfetto JSON; returns event count."""
        return write_trace(
            path, self.tracer.events(), self.frequency_mhz, metadata
        )

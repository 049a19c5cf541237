"""The metrics registry: one queryable namespace for every counter.

Before this layer existed, each subsystem kept an ad-hoc stats
dataclass and :meth:`repro.machine.System.stats_summary` hand-plumbed
them into one dict.  The registry inverts that: stat holders *register*
— either a :class:`Histogram` or an existing stats object
(``register_source``) whose numeric fields are harvested on demand —
and every consumer reads the same :meth:`MetricsRegistry.snapshot`.

Two design rules keep this zero-cost for the simulator's hot paths:

* Registration stores *references*, never copies; a registered stats
  dataclass keeps being incremented by its owner exactly as before —
  the registry only reads it when a snapshot is taken.
* Histograms are plain attribute arithmetic (no locks, no string
  formatting) so even tracer-side observations stay cheap.

Snapshots are plain nested dicts plus :meth:`MetricsSnapshot.diff` for
before/after workload deltas.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

_NUMERIC = (int, float)

#: Default histogram bucket upper bounds: powers of two spanning the
#: sizes this repo cares about (allocation sizes, span durations).
DEFAULT_BUCKETS = tuple(1 << e for e in range(4, 18))


class Histogram:
    """Bucketed distribution: observation count, sum, and bucket counts.

    Buckets are cumulative-style upper bounds (``le``); an observation
    lands in the first bucket whose bound is >= the value, or in the
    overflow bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[int] = DEFAULT_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.help = help
        self.bounds = tuple(buckets)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # + overflow
        self.count = 0
        self.sum = 0

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def collect(self):
        buckets = {
            f"le_{bound}": count
            for bound, count in zip(self.bounds, self.bucket_counts)
        }
        buckets["overflow"] = self.bucket_counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


def _harvest(stats) -> dict:
    """The numeric fields of a stats object, as a plain dict.

    Slotted dataclasses have no ``__dict__``; walk their fields.  Only
    int/float/bool values are harvested — a stats object may also carry
    event lists (e.g. ``ExecutiveStats.watchdog_events``) which are not
    metrics.
    """
    if is_dataclass(stats):
        pairs = ((f.name, getattr(stats, f.name)) for f in fields(stats))
    else:
        pairs = vars(stats).items()
    return {name: value for name, value in pairs if isinstance(value, _NUMERIC)}


class MetricsSnapshot:
    """One point-in-time reading of a registry: a nested plain dict."""

    def __init__(self, values: dict):
        self.values = values

    def as_dict(self) -> dict:
        return self.values

    def __getitem__(self, key):
        return self.values[key]

    def __contains__(self, key) -> bool:
        return key in self.values

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Numeric deltas ``self - earlier``, same nested shape.

        Keys missing from ``earlier`` are treated as zero; non-numeric
        leaves are dropped (an event list has no meaningful delta).
        """

        def walk(now, before):
            out = {}
            for key, value in now.items():
                prior = before.get(key, {} if isinstance(value, dict) else 0)
                if isinstance(value, dict):
                    out[key] = walk(value, prior if isinstance(prior, dict) else {})
                elif isinstance(value, _NUMERIC):
                    out[key] = value - (prior if isinstance(prior, _NUMERIC) else 0)
            return out

        return MetricsSnapshot(walk(self.values, earlier.values))


class MetricsRegistry:
    """Ordered namespace of histograms, stat sources and scalar callbacks."""

    def __init__(self) -> None:
        #: name -> ("metric", Histogram) | ("source", obj) | ("scalar", fn)
        self._entries: Dict[str, Tuple[str, object]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _add(self, name: str, kind: str, payload) -> None:
        if name in self._entries:
            raise ValueError(f"metric {name!r} already registered")
        self._entries[name] = (kind, payload)

    def histogram(
        self, name: str, help: str = "",
        buckets: Sequence[int] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = Histogram(name, help, buckets)
        self._add(name, "metric", metric)
        return metric

    def register_source(self, name: str, stats) -> None:
        """Adopt an existing stats object; its numeric fields become a
        metric group read live at snapshot time."""
        self._add(name, "source", stats)

    def register_scalar(self, name: str, fn: Callable[[], float]) -> None:
        """A top-level scalar computed on demand (e.g. ``cycles``)."""
        self._add(name, "scalar", fn)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def snapshot(self, groups: Optional[Iterable[str]] = None) -> MetricsSnapshot:
        """Read every entry (or just ``groups``) into a nested dict."""
        wanted = None if groups is None else tuple(groups)
        names = self._entries if wanted is None else wanted
        values: dict = {}
        for name in names:
            kind, payload = self._entries[name]
            if kind == "metric":
                values[name] = payload.collect()
            elif kind == "source":
                values[name] = _harvest(payload)
            else:  # scalar
                values[name] = payload()
        return MetricsSnapshot(values)

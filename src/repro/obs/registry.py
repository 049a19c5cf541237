"""The metrics registry: one queryable namespace for every counter.

Before this layer existed, each subsystem kept an ad-hoc stats
dataclass and :meth:`repro.machine.System.stats_summary` hand-plumbed
them into one dict.  The registry inverts that: stat holders *register*
— either a native metric (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`, optionally labelled) or an existing stats object
(``register_source``) whose numeric fields are harvested on demand —
and every consumer reads the same :meth:`MetricsRegistry.snapshot`.

Two design rules keep this zero-cost for the simulator's hot paths:

* Registration stores *references*, never copies; a registered stats
  dataclass keeps being incremented by its owner exactly as before —
  the registry only reads it when a snapshot is taken.
* Native metrics are plain attribute arithmetic (no locks, no string
  formatting) so even tracer-side increments stay cheap.

Snapshots are plain nested dicts plus :meth:`MetricsSnapshot.diff` for
before/after workload deltas and :meth:`MetricsSnapshot.flat` for
dotted-path queries.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .sketch import is_sketch_dict, merge_sketch_dicts, normalize_sketch_dict

_NUMERIC = (int, float)

#: Default histogram bucket upper bounds: powers of two spanning the
#: sizes this repo cares about (allocation sizes, span durations).
DEFAULT_BUCKETS = tuple(1 << e for e in range(4, 18))


def _label_key(labels: Sequence[str], values: Dict[str, object]) -> str:
    """Canonical ``k=v,k=v`` key for one label combination."""
    missing = set(labels) - set(values)
    extra = set(values) - set(labels)
    if missing or extra:
        raise ValueError(
            f"label mismatch: expected {tuple(labels)}, got {tuple(values)}"
        )
    return ",".join(f"{name}={values[name]}" for name in labels)


class Counter:
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self.value = 0
        self._children: Dict[str, "Counter"] = {}

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def labels(self, **values) -> "Counter":
        """The child counter for one label combination (created lazily)."""
        key = _label_key(self.label_names, values)
        child = self._children.get(key)
        if child is None:
            child = Counter(f"{self.name}{{{key}}}", self.help)
            self._children[key] = child
        return child

    def collect(self):
        if self._children:
            return {key: child.value for key, child in self._children.items()}
        return self.value

    def merge(self, other: "Counter") -> "Counter":
        """Fold another counter of the same shape into this one."""
        if other.label_names != self.label_names:
            raise ValueError(
                f"cannot merge counter {other.name!r} (labels "
                f"{other.label_names}) into {self.name!r} ({self.label_names})"
            )
        self.value += other.value
        for key in sorted(other._children):
            child = self._children.get(key)
            if child is None:
                child = Counter(f"{self.name}{{{key}}}", self.help)
                self._children[key] = child
            child.value += other._children[key].value
        return self


class Gauge:
    """A value that can go up or down — or be computed on demand."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        self.help = help
        self.fn = fn
        self.value = 0

    def set(self, value) -> None:
        if self.fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        self.value = value

    def add(self, amount) -> None:
        if self.fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        self.value += amount

    def collect(self):
        return self.fn() if self.fn is not None else self.value

    def merge(self, other: "Gauge") -> "Gauge":
        """Fleet-fold semantics for gauges: *additive*.

        A fleet of devices each reporting "live bytes" merges to the
        fleet's total live bytes; non-additive gauges do not belong in
        a merged aggregate.  Callback-backed gauges merge by their
        collected value.
        """
        if self.fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        self.value += other.collect()
        return self


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

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram with the identical bucket layout."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} (bounds "
                f"{other.bounds}) into {self.name!r} ({self.bounds})"
            )
        for i, count in enumerate(other.bucket_counts):
            self.bucket_counts[i] += count
        self.count += other.count
        self.sum += other.sum
        return self


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


def merge_values(a, b):
    """Deterministically merge two JSON-shaped metric values.

    The fleet-fold algebra: numbers add, nested dicts merge recursively
    (missing keys are identity), serialized quantile sketches merge by
    per-bin addition.  The operation is commutative and associative
    with ``{}``/``0`` as identity — the laws the property tests pin —
    so folding any shard split of the same snapshots yields the
    identical aggregate.
    """
    if is_sketch_dict(a) or is_sketch_dict(b):
        if not (is_sketch_dict(a) and is_sketch_dict(b)):
            raise ValueError("cannot merge a sketch with a non-sketch value")
        return merge_sketch_dicts(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        out = {}
        for key in sorted(set(a) | set(b)):
            if key in a and key in b:
                out[key] = merge_values(a[key], b[key])
            else:
                out[key] = _merge_single(a[key] if key in a else b[key])
        return out
    if isinstance(a, _NUMERIC) and isinstance(b, _NUMERIC):
        return a + b
    raise ValueError(
        f"cannot merge values of kinds {type(a).__name__}/{type(b).__name__}"
    )


def _merge_single(value):
    """A one-sided merge: a canonical copy of ``value`` (identity law)."""
    if is_sketch_dict(value):
        return normalize_sketch_dict(value)
    if isinstance(value, dict):
        return merge_values(value, {})
    if isinstance(value, _NUMERIC):
        return value
    raise ValueError(f"cannot merge value of kind {type(value).__name__}")


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

    def flat(self, sep: str = ".") -> Dict[str, float]:
        """Dotted-path view: ``{"bus.cap_reads": 7, "cycles": 123}``."""
        out: Dict[str, float] = {}

        def walk(prefix: str, node) -> None:
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(f"{prefix}{sep}{key}" if prefix else str(key), value)
            elif isinstance(node, _NUMERIC):
                out[prefix] = node

        walk("", self.values)
        return out

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold another snapshot into a new one (fleet-fold algebra)."""
        return MetricsSnapshot(merge_values(self.values, other.values))

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
    """Ordered namespace of metrics, stat sources and scalar callbacks."""

    def __init__(self) -> None:
        #: name -> ("metric", Metric) | ("source", obj) | ("scalar", fn)
        self._entries: Dict[str, Tuple[str, object]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _add(self, name: str, kind: str, payload, replace: bool) -> None:
        if name in self._entries and not replace:
            raise ValueError(f"metric {name!r} already registered")
        self._entries[name] = (kind, payload)

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = (),
        replace: bool = False,
    ) -> Counter:
        metric = Counter(name, help, labels)
        self._add(name, "metric", metric, replace)
        return metric

    def gauge(
        self, name: str, help: str = "",
        fn: Optional[Callable[[], float]] = None, replace: bool = False,
    ) -> Gauge:
        metric = Gauge(name, help, fn)
        self._add(name, "metric", metric, replace)
        return metric

    def histogram(
        self, name: str, help: str = "",
        buckets: Sequence[int] = DEFAULT_BUCKETS, replace: bool = False,
    ) -> Histogram:
        metric = Histogram(name, help, buckets)
        self._add(name, "metric", metric, replace)
        return metric

    def register_source(self, name: str, stats, replace: bool = False) -> None:
        """Adopt an existing stats object; its numeric fields become a
        metric group read live at snapshot time."""
        self._add(name, "source", stats, replace)

    def register_scalar(
        self, name: str, fn: Callable[[], float], replace: bool = False
    ) -> None:
        """A top-level scalar computed on demand (e.g. ``cycles``)."""
        self._add(name, "scalar", fn, replace)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def names(self) -> "tuple[str, ...]":
        return tuple(self._entries)

    def get(self, name: str):
        """The registered metric/source/callback payload, or None."""
        entry = self._entries.get(name)
        return entry[1] if entry is not None else None

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

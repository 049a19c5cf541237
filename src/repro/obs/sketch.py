"""A fixed-centroid quantile sketch for fleet latency percentiles.

The fleet fold needs latency percentiles that *merge*: each device's
network phase ships a sketch rather than its raw samples, and the
fleet-wide sketch must not depend on the order the devices fold in.
Exact percentiles do not have that property without shipping every
raw sample; adaptive sketches (t-digest, GK) do not have it either,
because their centroids depend on arrival order.

This sketch takes the HDR-histogram route instead: the bin layout is
**fixed ahead of time** — every non-negative integer value maps to one
bin by a pure function of the value — so a sketch is just a bag of
``bin -> count`` pairs plus exact ``count/sum/min/max``.  Merging is
per-bin integer addition, which makes ``merge``:

* **commutative and associative** (integer addition is),
* **partition invariant** — observing a sample list directly or
  observing any partition of it in any order and merging produces the
  *identical* state, bit for bit.

Layout (scheme ``"log2m8"``): values below 16 get exact unit bins;
above that, each power-of-two octave is split into 8 sub-bins, so the
representative value (bin midpoint) is within ~6.25% of any member of
its bin.  Cross-compartment call latencies in this repo are hundreds
to thousands of cycles, so the whole fleet's distribution fits in a
few dozen bins.

Quantiles are nearest-rank over the cumulative bin counts (one rank
rule, :func:`nearest_rank`, shared with the fleet's exact per-device
percentiles), answered with the bin's representative value and
clamped to the exact observed ``[min, max]`` — so
``quantile(0.0)``/``quantile(1.0)`` are exact, and interior quantiles
carry the documented ~6.25% bin-width error bound (the soundness note
in ``docs/architecture.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: The one bin layout this repo uses.  A serialized sketch names its
#: scheme so a future layout change cannot silently merge with this
#: one.
SCHEME = "log2m8"

#: Values below this get exact unit bins (bin index == value).
_EXACT_LIMIT = 16

#: Sub-bins per power-of-two octave above the exact range.
_SUBBINS = 8

#: log2(_EXACT_LIMIT) — the exponent where octave binning starts.
_BASE_EXP = 4

#: Quantiles are ranked in ten-thousandths: ``q`` is rounded to a whole
#: number of them first, so a float product such as ``0.57 * 10_000 ==
#: 5699.999...`` cannot drop a rank.
_RANK_SCALE = 10_000


def nearest_rank(q: float, count: int) -> int:
    """The 1-based nearest rank of quantile ``q`` among ``count`` values."""
    return max(1, -(-round(q * _RANK_SCALE) * count // _RANK_SCALE))  # ceil


def bin_index(value: int) -> int:
    """The fixed bin for ``value`` (a pure function of the value)."""
    if value < 0:
        raise ValueError("sketch values must be non-negative integers")
    if value < _EXACT_LIMIT:
        return value
    exp = value.bit_length() - 1
    sub = (value >> (exp - 3)) & (_SUBBINS - 1)
    return _EXACT_LIMIT + (exp - _BASE_EXP) * _SUBBINS + sub


def bin_bounds(index: int) -> Tuple[int, int]:
    """The half-open value range ``[lo, hi)`` covered by bin ``index``."""
    if index < _EXACT_LIMIT:
        return index, index + 1
    octave, sub = divmod(index - _EXACT_LIMIT, _SUBBINS)
    exp = octave + _BASE_EXP
    width = 1 << (exp - 3)
    lo = (_SUBBINS + sub) * width
    return lo, lo + width


def bin_representative(index: int) -> int:
    """The centroid reported for bin ``index`` (its integer midpoint)."""
    lo, hi = bin_bounds(index)
    return lo + (hi - lo - 1) // 2


class SketchError(ValueError):
    """A serialized sketch that cannot be parsed."""


class QuantileSketch:
    """Mergeable fixed-bin distribution sketch (scheme ``log2m8``)."""

    __slots__ = ("bins", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.bins: Dict[int, int] = {}
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    # ------------------------------------------------------------------
    # Observation and merge
    # ------------------------------------------------------------------

    def observe(self, value: int, weight: int = 1) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        index = bin_index(value)
        self.bins[index] = self.bins.get(index, 0) + weight
        self.count += weight
        self.sum += value * weight
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def observe_many(self, values: Iterable[int]) -> None:
        for value in values:
            self.observe(value)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place; returns self)."""
        for index in sorted(other.bins):
            self.bins[index] = self.bins.get(index, 0) + other.bins[index]
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> int:
        """Nearest-rank quantile, clamped to the exact observed range."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0
        assert self.min is not None and self.max is not None
        rank = nearest_rank(q, self.count)
        seen = 0
        for index in sorted(self.bins):
            seen += self.bins[index]
            if seen >= rank:
                return min(max(bin_representative(index), self.min), self.max)
        return self.max

    def mean(self) -> float:
        return round(self.sum / self.count, 2) if self.count else 0.0

    def summary(self) -> dict:
        """The percentile block the fleet aggregate reports."""
        return {
            "count": self.count,
            "min": self.min if self.min is not None else 0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "max": self.max if self.max is not None else 0,
            "mean": self.mean(),
        }

    # ------------------------------------------------------------------
    # Serialization (the aggregate's ``sketch`` and ``net_sketch``)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical serialized form: sorted ``[index, count]`` pairs."""
        bins: List[List[int]] = [
            [index, self.bins[index]] for index in sorted(self.bins)
        ]
        return {
            "scheme": SCHEME,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "bins": bins,
        }

    @staticmethod
    def from_dict(data: dict) -> "QuantileSketch":
        if not isinstance(data, dict) or data.get("scheme") != SCHEME:
            raise SketchError(
                f"not a {SCHEME!r} sketch: {data.get('scheme') if isinstance(data, dict) else data!r}"
            )
        sketch = QuantileSketch()
        for pair in data.get("bins", []):
            index, count = int(pair[0]), int(pair[1])
            if count < 0:
                raise SketchError(f"negative bin count at index {index}")
            if count:
                sketch.bins[index] = sketch.bins.get(index, 0) + count
        sketch.count = int(data.get("count", 0))
        sketch.sum = int(data.get("sum", 0))
        if sketch.count:
            sketch.min = int(data.get("min", 0))
            sketch.max = int(data.get("max", 0))
        if sum(sketch.bins.values()) != sketch.count:
            raise SketchError("bin counts do not sum to the recorded count")
        return sketch

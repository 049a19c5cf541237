"""Merge semantics on registry metrics and snapshots.

The fleet-fold algebra's laws — commutative, associative, ``{}``/0 as
identity — are what make the merged aggregate independent of shard
split and worker count, so hypothesis pins them directly.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Counter, Gauge, Histogram, MetricsSnapshot
from repro.obs.registry import merge_values
from repro.obs.sketch import QuantileSketch

def _sketch_dict(values):
    sketch = QuantileSketch()
    sketch.observe_many(values)
    return sketch.to_dict()


KEYS = st.sampled_from(["calls", "cycles", "faults", "kernel", "alloc"])

#: A type schema: each key is an int counter, a sketch, or a nested
#: namespace.  Every shard reports the same metric types, so snapshots
#: under one schema are the mergeable population.
schema_strategy = st.recursive(
    st.sampled_from(["int", "sketch"]),
    lambda children: st.dictionaries(KEYS, children, min_size=1, max_size=3),
    max_leaves=8,
)


@st.composite
def conforming_snapshots(draw, n):
    """``n`` snapshots that agree on each key's type.  Keys may be
    absent from any one snapshot (a shard that never touched that
    metric) — merge handles one-sided keys — but a key never changes
    type across snapshots."""
    schema = draw(st.dictionaries(KEYS, schema_strategy, max_size=4))

    def fill(node):
        if node == "int":
            return draw(st.integers(min_value=0, max_value=10**6))
        if node == "sketch":
            return _sketch_dict(
                draw(st.lists(st.integers(min_value=0, max_value=4096),
                              max_size=8))
            )
        return {
            key: fill(child)
            for key, child in node.items()
            if draw(st.booleans())
        }

    return [fill(schema) for _ in range(n)]


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


class TestMergeLaws:
    @settings(max_examples=50)
    @given(conforming_snapshots(2))
    def test_commutative(self, snaps):
        a, b = snaps
        assert _canon(merge_values(a, b)) == _canon(merge_values(b, a))

    @settings(max_examples=50)
    @given(conforming_snapshots(3))
    def test_associative(self, snaps):
        a, b, c = snaps
        left = merge_values(merge_values(a, b), c)
        right = merge_values(a, merge_values(b, c))
        assert _canon(left) == _canon(right)

    @settings(max_examples=50)
    @given(conforming_snapshots(1))
    def test_empty_is_identity(self, snaps):
        (a,) = snaps
        assert _canon(merge_values(a, {})) == _canon(a)
        assert _canon(merge_values({}, a)) == _canon(a)

    @settings(max_examples=50)
    @given(
        conforming_snapshots(6),
        st.integers(min_value=1, max_value=4),
    )
    def test_split_then_merge_round_trips_byte_identically(self, parts, shards):
        """Folding the same snapshots in any shard grouping produces the
        identical bytes — the `--jobs`-independence contract."""
        whole = {}
        for part in parts:
            whole = merge_values(whole, part)
        groups = [{} for _ in range(shards)]
        for i, part in enumerate(parts):
            groups[i % shards] = merge_values(groups[i % shards], part)
        refolded = {}
        for group in groups:
            refolded = merge_values(refolded, group)
        assert _canon(refolded) == _canon(whole)

    def test_sketch_only_merges_with_sketch(self):
        with pytest.raises(ValueError):
            merge_values({"x": _sketch_dict([1])}, {"x": 3})


class TestMetricMerge:
    def test_counter_merge_adds_values_and_children(self):
        a = Counter("c", labels=("kind",))
        b = Counter("c", labels=("kind",))
        a.labels(kind="x").inc(2)
        b.labels(kind="x").inc(3)
        b.labels(kind="y").inc(7)
        a.merge(b)
        assert a.collect() == {"kind=x": 5, "kind=y": 7}

    def test_counter_merge_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            Counter("c", labels=("kind",)).merge(Counter("c"))

    def test_gauge_merge_is_additive(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(10)
        b.set(-3)
        assert a.merge(b).collect() == 7

    def test_callback_gauge_refuses_merge(self):
        g = Gauge("g", fn=lambda: 1)
        with pytest.raises(ValueError):
            g.merge(Gauge("g"))

    def test_histogram_merge_needs_identical_bounds(self):
        a = Histogram("h", buckets=(8, 16))
        b = Histogram("h", buckets=(8, 16))
        a.observe(4)
        b.observe(12)
        b.observe(100)
        merged = a.merge(b).collect()
        assert merged["count"] == 3
        assert merged["sum"] == 116
        assert merged["buckets"] == {"le_8": 1, "le_16": 1, "overflow": 1}
        with pytest.raises(ValueError):
            a.merge(Histogram("h", buckets=(4,)))


class TestSnapshotMerge:
    def test_snapshot_merge_and_delta(self):
        a = MetricsSnapshot({"calls": 2, "lat": _sketch_dict([5])})
        b = MetricsSnapshot({"calls": 3, "lat": _sketch_dict([900])})
        merged = a.merge(b)
        assert merged["calls"] == 5
        assert merged["lat"]["count"] == 2
        assert a.diff(MetricsSnapshot({"calls": 1}))["calls"] == 1

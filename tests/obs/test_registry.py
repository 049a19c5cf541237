"""Tests for the metrics registry: histograms, sources, snapshot/diff."""

from dataclasses import dataclass, field

import pytest

from repro.obs import Histogram, MetricsRegistry


@dataclass
class FakeStats:
    hits: int = 0
    misses: int = 0
    ratio: float = 0.0
    name: str = "not-a-number"  # must not be harvested
    items: list = field(default_factory=list)  # must not be harvested


class TestMetrics:
    def test_histogram_buckets_and_overflow(self):
        h = Histogram("h", buckets=(10, 100))
        for v in (1, 9, 10, 11, 100, 5000):
            h.observe(v)
        got = h.collect()
        assert got["count"] == 6
        assert got["sum"] == 1 + 9 + 10 + 11 + 100 + 5000
        assert got["buckets"] == {"le_10": 3, "le_100": 2, "overflow": 1}


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("x")
        with pytest.raises(ValueError):
            reg.histogram("x")
        with pytest.raises(ValueError):
            reg.register_source("x", FakeStats())
        with pytest.raises(ValueError):
            reg.register_scalar("x", lambda: 1)

    def test_source_harvests_numeric_fields_live(self):
        reg = MetricsRegistry()
        stats = FakeStats()
        reg.register_source("cache", stats)
        stats.hits = 3
        stats.ratio = 0.5
        snap = reg.snapshot()
        assert snap["cache"] == {"hits": 3, "misses": 0, "ratio": 0.5}
        stats.hits = 10  # registry holds a reference, not a copy
        assert reg.snapshot()["cache"]["hits"] == 10

    def test_scalar_callback(self):
        reg = MetricsRegistry()
        reg.register_scalar("epoch", lambda: 42)
        assert reg.snapshot()["epoch"] == 42

    def test_snapshot_groups_filter(self):
        reg = MetricsRegistry()
        reg.register_scalar("a", lambda: 1)
        reg.register_scalar("b", lambda: 2)
        snap = reg.snapshot(("b",))
        assert snap.as_dict() == {"b": 2}

    def test_snapshot_unknown_group_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            reg.snapshot(("nope",))


class TestSnapshotDiff:
    def _registry(self, stats):
        reg = MetricsRegistry()
        reg.register_source("cache", stats)
        reg.register_scalar("epoch", lambda: stats.hits)
        return reg

    def test_diff_is_recursive_numeric_delta(self):
        stats = FakeStats(hits=1, misses=2)
        reg = self._registry(stats)
        before = reg.snapshot()
        stats.hits += 5
        stats.misses += 1
        diff = reg.snapshot().diff(before)
        assert diff["cache"] == {"hits": 5, "misses": 1, "ratio": 0.0}
        assert diff["epoch"] == 5

    def test_diff_treats_missing_keys_as_zero(self):
        stats = FakeStats()
        reg = self._registry(stats)
        before = reg.snapshot()
        reg.register_scalar("new", lambda: 7)
        diff = reg.snapshot().diff(before)
        assert diff["new"] == 7

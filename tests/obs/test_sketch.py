"""The fixed-centroid quantile sketch: bins, quantiles, merge laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import (
    QuantileSketch,
    bin_bounds,
    bin_index,
    bin_representative,
    nearest_rank,
)

samples = st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=60)


class TestBins:
    def test_small_values_get_exact_bins(self):
        for value in range(16):
            assert bin_index(value) == value
            lo, hi = bin_bounds(value)
            assert lo == value and hi == value + 1
            assert bin_representative(value) == value

    def test_bins_are_contiguous_and_cover(self):
        previous_hi = None
        for index in range(200):
            lo, hi = bin_bounds(index)
            assert lo < hi
            if previous_hi is not None:
                assert lo == previous_hi
            previous_hi = hi

    @given(st.integers(min_value=0, max_value=1 << 40))
    def test_every_value_lands_in_its_bin_bounds(self, value):
        lo, hi = bin_bounds(bin_index(value))
        assert lo <= value < hi
        assert lo <= bin_representative(bin_index(value)) < hi

    def test_relative_error_is_bounded_above_exact_range(self):
        for value in (16, 100, 4096, 123_457, 10**9):
            lo, hi = bin_bounds(bin_index(value))
            # 8 sub-bins per octave: bin width <= lo / 8.
            assert (hi - lo) * 8 <= lo


class TestQuantiles:
    def test_exact_below_sixteen(self):
        sketch = QuantileSketch()
        sketch.observe_many(range(16))
        for value in range(16):
            assert sketch.quantile((value + 1) / 16) == value

    def test_nearest_rank_on_uniform_hundred(self):
        sketch = QuantileSketch()
        sketch.observe_many(range(1, 101))
        summary = sketch.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1 and summary["max"] == 100
        # Representatives clamp to [min, max]; mid quantiles stay
        # within one bin width of the exact nearest-rank answer.
        assert abs(summary["p50"] - 50) <= 4
        assert abs(summary["p90"] - 90) <= 7

    def test_rank_survives_float_products(self):
        """``0.57 * 10_000`` is 5699.999...: truncating it ranked the
        5,699th value, a 0, where nearest rank is the 5,700th, a 1."""
        sketch = QuantileSketch()
        sketch.observe(0, weight=5_699)
        sketch.observe(1, weight=4_301)
        assert nearest_rank(0.57, 10_000) == 5_700
        assert sketch.quantile(0.57) == 1
        assert sketch.quantile(0.5699) == 0

    @given(
        st.sampled_from([0.5, 0.9, 0.99]),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_reported_quantiles_keep_their_ranks(self, q, count):
        """p50/p90/p99 rank exactly as the truncating rule did, so no
        committed summary moves."""
        assert nearest_rank(q, count) == max(
            1, -(-int(q * 10_000) * count // 10_000)
        )

    def test_empty_sketch_is_all_zero(self):
        summary = QuantileSketch().summary()
        assert summary == {
            "count": 0, "min": 0, "p50": 0, "p90": 0, "p99": 0,
            "max": 0, "mean": 0.0,
        }


class TestMergeLaws:
    @settings(max_examples=40)
    @given(samples, samples)
    def test_merge_is_commutative(self, a, b):
        left = _sketch(a).merge(_sketch(b))
        right = _sketch(b).merge(_sketch(a))
        assert left.to_dict() == right.to_dict()

    @settings(max_examples=40)
    @given(samples, samples, samples)
    def test_merge_is_associative(self, a, b, c):
        one = _sketch(a).merge(_sketch(b).merge(_sketch(c)))
        two = _sketch(a).merge(_sketch(b)).merge(_sketch(c))
        assert one.to_dict() == two.to_dict()

    @settings(max_examples=40)
    @given(samples)
    def test_empty_is_the_identity(self, a):
        merged = QuantileSketch().merge(_sketch(a))
        assert merged.to_dict() == _sketch(a).to_dict()

    @settings(max_examples=40)
    @given(samples, st.integers(min_value=1, max_value=7))
    def test_shard_split_invariance(self, a, shards):
        """Observing the stream whole or split into any number of parts
        folds to the same sketch — the fleet determinism contract in
        miniature."""
        whole = _sketch(a)
        parts = [QuantileSketch() for _ in range(shards)]
        for i, value in enumerate(a):
            parts[i % shards].observe(value)
        folded = QuantileSketch()
        for part in parts:
            folded = folded.merge(part)
        assert folded.to_dict() == whole.to_dict()


class TestWireFormat:
    def test_round_trip(self):
        sketch = _sketch([3, 18, 4096, 4097, 10**6])
        again = QuantileSketch.from_dict(sketch.to_dict())
        assert again.to_dict() == sketch.to_dict()
        assert again.summary() == sketch.summary()

    def test_from_dict_rejects_other_schemes(self):
        payload = _sketch([1]).to_dict()
        payload["scheme"] = "hdr-v2"
        with pytest.raises(ValueError):
            QuantileSketch.from_dict(payload)

    def test_from_dict_rejects_inconsistent_count(self):
        payload = _sketch([1, 2]).to_dict()
        payload["count"] = 99
        with pytest.raises(ValueError):
            QuantileSketch.from_dict(payload)


def _sketch(values):
    sketch = QuantileSketch()
    sketch.observe_many(values)
    return sketch

"""Tests for the boundary-tagged chunk allocator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocator.dlmalloc import (
    ALIGNMENT,
    HEADER_SIZE,
    MIN_CHUNK_SIZE,
    SMALL_BIN_MAX,
    DlMalloc,
    HeapCorruption,
    HeapExhausted,
)

BASE = 0x1000
SIZE = 0x10000
#: The property tests' heap: small enough that a script's live set runs
#: it out, so their scripts (50 steps or more, as the scan-reference
#: suite draws) reach ``HeapExhausted`` as well as bin reuse and
#: coalescing.
SCRIPT_SIZE = 0x1000


@pytest.fixture
def heap():
    return DlMalloc(BASE, SIZE)


class TestBasics:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            DlMalloc(BASE + 1, SIZE)
        with pytest.raises(ValueError):
            DlMalloc(BASE, 8)

    def test_allocate_returns_aligned_payload(self, heap):
        for request in (1, 7, 8, 13, 100):
            chunk = heap.allocate(request)
            assert chunk.payload_address % ALIGNMENT == 0
            assert chunk.payload_size >= request
            assert chunk.size == chunk.payload_size + HEADER_SIZE

    def test_zero_size_rejected(self, heap):
        with pytest.raises(ValueError):
            heap.allocate(0)

    def test_headers_are_in_band(self, heap):
        """Boundary tags: consecutive chunks are separated by exactly

        one header — the embedded-friendly in-band layout (5.1)."""
        a = heap.allocate(24)
        b = heap.allocate(24)
        assert b.address == a.end
        assert b.payload_address - a.end == HEADER_SIZE

    def test_exhaustion(self, heap):
        heap.allocate(SIZE - HEADER_SIZE - MIN_CHUNK_SIZE)
        with pytest.raises(HeapExhausted):
            heap.allocate(1024)


class TestRelease:
    def test_release_and_reuse(self, heap):
        chunk = heap.allocate(64)
        address = chunk.payload_address
        heap.release(chunk)
        again = heap.allocate(64)
        assert again.payload_address == address  # LIFO small bin

    def test_double_release_rejected(self, heap):
        chunk = heap.allocate(64)
        heap.release(chunk)
        with pytest.raises(HeapCorruption):
            heap.release(chunk)

    def test_full_coalescing_restores_heap(self, heap):
        chunks = [heap.allocate(100) for _ in range(20)]
        random.Random(7).shuffle(chunks)
        for chunk in chunks:
            heap.release(chunk)
        heap.check_invariants()
        assert heap.free_bytes == SIZE
        big = heap.allocate(SIZE - HEADER_SIZE)
        assert big.payload_size == SIZE - HEADER_SIZE

    def test_partial_coalescing(self, heap):
        a = heap.allocate(64)
        b = heap.allocate(64)
        c = heap.allocate(64)
        heap.release(a)
        heap.release(c)
        heap.release(b)  # merges with both neighbours and the top
        heap.check_invariants()
        assert heap.free_bytes == SIZE

    def test_chunk_lookup_by_payload(self, heap):
        chunk = heap.allocate(48)
        assert heap.chunk_at_payload(chunk.payload_address) is chunk
        with pytest.raises(HeapCorruption):
            heap.chunk_at_payload(chunk.payload_address + 8)


class TestSplitting:
    def test_large_chunk_split_returns_remainder(self, heap):
        chunk = heap.allocate(1024)
        free_before = heap.free_bytes
        assert free_before == SIZE - chunk.size
        heap.check_invariants()

    def test_tiny_remainder_not_split(self, heap):
        """A remainder below MIN_CHUNK_SIZE stays attached to the chunk."""
        a = heap.allocate(SIZE - HEADER_SIZE - MIN_CHUNK_SIZE - 8)
        assert heap.free_bytes <= MIN_CHUNK_SIZE + 8
        heap.check_invariants()


class TestOpsCounting:
    def test_ops_accumulate_and_reset(self, heap):
        heap.allocate(64)
        assert heap.ops.header_writes > 0
        heap.ops.reset()
        assert heap.ops.header_writes == 0


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=2048)),
            min_size=50,
            max_size=120,
        )
    )
    def test_random_workload_preserves_invariants(self, script):
        heap = DlMalloc(BASE, SCRIPT_SIZE)
        live = []
        for do_free, size in script:
            if do_free and live:
                heap.release(live.pop(len(live) // 2))
            else:
                try:
                    live.append(heap.allocate(size))
                except HeapExhausted:
                    pass
            heap.check_invariants()
        # No two live chunks overlap.
        spans = sorted((c.address, c.end) for c in live)
        for (a1, e1), (a2, _) in zip(spans, spans[1:]):
            assert e1 <= a2
        for chunk in live:
            heap.release(chunk)
        heap.check_invariants()
        assert heap.free_bytes == SCRIPT_SIZE


class _LinearWalk(DlMalloc):
    """The small-bin search as a bin-by-bin walk: the smallmap's reference."""

    def _take_small(self, needed):
        if needed > SMALL_BIN_MAX + HEADER_SIZE:
            return None
        size = needed
        while size <= SMALL_BIN_MAX + HEADER_SIZE:
            self.ops.list_ops += 1
            bin_ = self._small_bins.get(size)
            if bin_:
                chunk = bin_.pop()
                self.ops.list_ops += 1
                return chunk
            size += ALIGNMENT
        return None


def _ops(heap):
    ops = heap.ops
    return ops.header_reads, ops.header_writes, ops.list_ops


def _assert_smallmap_exact(heap):
    """Bit k is set exactly when the bin for chunk size 8k is non-empty."""
    bins = (SMALL_BIN_MAX + HEADER_SIZE) // ALIGNMENT
    for k in range(bins + 1):
        occupied = bool(heap._small_bins.get(k * ALIGNMENT))
        assert bool(heap._smallmap >> k & 1) == occupied, k
    assert heap._smallmap >> (bins + 1) == 0


class TestSmallmap:
    def test_hit_and_miss_counts(self):
        heap = DlMalloc(BASE, SIZE)
        keep = [heap.allocate(40), heap.allocate(8), heap.allocate(40)]
        heap.release(keep[1])  # a 16-byte chunk between two live ones
        heap.ops.reset()
        # A 48-byte request misses every bin from 48 up to 264.
        assert heap._take_small(48) is None
        assert heap.ops.list_ops == (264 - 48) // ALIGNMENT + 1
        heap.ops.reset()
        # The exact bin hits: one position visited, plus the unlink.
        assert heap._take_small(16) is keep[1]
        assert heap.ops.list_ops == 2
        assert heap._smallmap == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([ALIGNMENT, 2 * ALIGNMENT, 8 * ALIGNMENT]),
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=1, max_value=600),
                st.integers(min_value=0, max_value=1 << 16),
            ),
            min_size=50,
            max_size=150,
        ),
    )
    def test_matches_linear_walk(self, granularity, script):
        """Same chunk and same op counts as the walk, after every step."""
        fast = DlMalloc(BASE, SCRIPT_SIZE, granularity)
        slow = _LinearWalk(BASE, SCRIPT_SIZE, granularity)
        live_fast, live_slow = [], []
        for do_free, size, pick in script:
            if do_free and live_fast:
                index = pick % len(live_fast)
                fast.release(live_fast.pop(index))
                slow.release(live_slow.pop(index))
            else:
                try:
                    got = fast.allocate(size)
                except HeapExhausted:
                    got = None
                try:
                    want = slow.allocate(size)
                except HeapExhausted:
                    want = None
                assert (got is None) == (want is None)
                if got is not None:
                    assert (got.address, got.size) == (want.address, want.size)
                    live_fast.append(got)
                    live_slow.append(want)
            assert _ops(fast) == _ops(slow)
            _assert_smallmap_exact(fast)

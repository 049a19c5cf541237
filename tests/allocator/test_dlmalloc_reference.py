"""The flattened allocator against the scans it replaced.

``DlMalloc`` finds its large-bin index with ``bisect_left`` and reads
chunk fields into locals; ``CheriHeap._malloc`` makes the first
allocation attempt itself and enters the revocation path only when it
fails.  ``_ScanDlMalloc`` below is the allocator before that change,
trimmed to ``allocate``, ``release`` and their helpers, with its linear
scans and its property reads kept.  Random allocate/release sequences
drive both, and after every step the chunk map, the end index, the
order of every bin, the smallmap and the operation counters must be
equal, and ``HeapExhausted`` must come at the same step.
"""

import copy
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocator import OutOfMemory, TemporalSafetyMode
from repro.allocator.dlmalloc import (
    ALIGNMENT,
    HEADER_SIZE,
    MIN_CHUNK_SIZE,
    SMALL_BIN_MAX,
    AllocatorOps,
    DlMalloc,
    HeapCorruption,
    HeapExhausted,
)
from repro.machine import System
from repro.pipeline import CoreKind


@dataclass
class _ScanChunk:
    address: int
    size: int
    free: bool = False

    @property
    def payload_address(self) -> int:
        return self.address + HEADER_SIZE

    @property
    def payload_size(self) -> int:
        return self.size - HEADER_SIZE

    @property
    def end(self) -> int:
        return self.address + self.size


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


class _ScanDlMalloc:
    """The reference: the large bin is scanned and chunk fields are read
    through the properties."""

    def __init__(self, base: int, size: int, chunk_granularity: int) -> None:
        self.base = base
        self.size = size
        self.chunk_granularity = chunk_granularity
        self.ops = AllocatorOps()
        self._chunks: Dict[int, _ScanChunk] = {}
        self._by_end: Dict[int, _ScanChunk] = {}
        self._small_bins: Dict[int, List[_ScanChunk]] = {}
        self._smallmap = 0
        self._large_bin: List[_ScanChunk] = []
        whole = _ScanChunk(base, size, free=True)
        self._chunks[base] = whole
        self._by_end[whole.end] = whole
        self._insert_free(whole)

    def allocate(self, payload_size: int) -> _ScanChunk:
        if payload_size <= 0:
            raise ValueError("allocation size must be positive")
        needed = _round_up(payload_size + HEADER_SIZE, self.chunk_granularity)
        if needed < MIN_CHUNK_SIZE:
            needed = MIN_CHUNK_SIZE

        chunk = self._take_small(needed) or self._take_large(needed)
        if chunk is None:
            raise HeapExhausted(f"no chunk of {needed} bytes available")
        remainder = chunk.size - needed
        if remainder >= max(MIN_CHUNK_SIZE, self.chunk_granularity):
            rest = _ScanChunk(chunk.address + needed, remainder, free=True)
            chunk.size = needed
            self._by_end[chunk.end] = chunk
            self._chunks[rest.address] = rest
            self._by_end[rest.end] = rest
            self._insert_free(rest)
            self.ops.header_writes += 2
        chunk.free = False
        self.ops.header_writes += 1
        return chunk

    def _take_small(self, needed: int) -> Optional[_ScanChunk]:
        if needed > SMALL_BIN_MAX + HEADER_SIZE:
            return None
        first = needed // ALIGNMENT
        candidates = self._smallmap >> first
        if not candidates:
            largest = SMALL_BIN_MAX + HEADER_SIZE
            self.ops.list_ops += (largest - needed) // ALIGNMENT + 1
            return None
        skipped = (candidates & -candidates).bit_length() - 1
        bin_ = self._small_bins[needed + skipped * ALIGNMENT]
        chunk = bin_.pop()
        if not bin_:
            self._smallmap &= ~(1 << (first + skipped))
        self.ops.list_ops += skipped + 2
        return chunk

    def _take_large(self, needed: int) -> Optional[_ScanChunk]:
        for index, chunk in enumerate(self._large_bin):
            self.ops.list_ops += 1
            if chunk.size >= needed:
                return self._large_bin.pop(index)
        return None

    def release(self, chunk: _ScanChunk) -> None:
        if chunk.free:
            raise HeapCorruption(f"double release of chunk at {chunk.address:#x}")
        if self._chunks.get(chunk.address) is not chunk:
            raise HeapCorruption(f"unknown chunk at {chunk.address:#x}")
        chunk.free = True
        self.ops.header_writes += 1

        nxt = self._chunks.get(chunk.end)
        self.ops.header_reads += 1
        if nxt is not None and nxt.free:
            self._remove_free(nxt)
            del self._chunks[nxt.address]
            del self._by_end[nxt.end]
            del self._by_end[chunk.end]
            chunk.size += nxt.size
            self._by_end[chunk.end] = chunk
            self.ops.header_writes += 1

        prev = self._chunk_before(chunk.address)
        if prev is not None and prev.free:
            self._remove_free(prev)
            del self._chunks[chunk.address]
            del self._by_end[prev.end]
            del self._by_end[chunk.end]
            prev.size += chunk.size
            chunk = prev
            self._by_end[chunk.end] = chunk
            self.ops.header_writes += 1

        self._insert_free(chunk)

    def _chunk_before(self, address: int) -> Optional[_ScanChunk]:
        self.ops.header_reads += 1
        if address == self.base:
            return None
        return self._by_end.get(address)

    def _insert_free(self, chunk: _ScanChunk) -> None:
        self.ops.list_ops += 1
        if chunk.size <= SMALL_BIN_MAX + HEADER_SIZE:
            self._small_bins.setdefault(chunk.size, []).append(chunk)
            self._smallmap |= 1 << (chunk.size // ALIGNMENT)
        else:
            index = 0
            for index, existing in enumerate(self._large_bin):
                if existing.size >= chunk.size:
                    break
            else:
                index = len(self._large_bin)
            self._large_bin.insert(index, chunk)

    def _remove_free(self, chunk: _ScanChunk) -> None:
        self.ops.list_ops += 1
        if chunk.size <= SMALL_BIN_MAX + HEADER_SIZE:
            bin_ = self._small_bins.get(chunk.size, [])
            if chunk in bin_:
                bin_.remove(chunk)
                if not bin_:
                    self._smallmap &= ~(1 << (chunk.size // ALIGNMENT))
                return
            raise HeapCorruption(f"free chunk missing from small bin: {chunk}")
        if chunk in self._large_bin:
            self._large_bin.remove(chunk)
            return
        raise HeapCorruption(f"free chunk missing from large bin: {chunk}")


BASE = 0x4000
SIZE = 0x4000


def _span(chunk):
    return None if chunk is None else (chunk.address, chunk.size)


def _state(heap):
    """Everything the two allocators must agree on, as plain values."""
    ops = heap.ops
    return {
        "chunks": sorted(
            (key, c.address, c.size, c.free) for key, c in heap._chunks.items()
        ),
        "by_end": sorted((key, c.address) for key, c in heap._by_end.items()),
        "small_bins": {
            size: [_span(c) for c in bin_]
            for size, bin_ in sorted(heap._small_bins.items())
        },
        "large_bin": [_span(c) for c in heap._large_bin],
        "smallmap": heap._smallmap,
        "ops": (ops.header_reads, ops.header_writes, ops.list_ops),
    }


#: Request sizes: small-bin and large-bin requests, plus a few repeated
#: sizes so the large bin often holds chunks of one size and requests
#: often ask for exactly that size (where ``bisect_left`` and
#: ``bisect_right`` part ways).
SIZES = st.one_of(
    st.integers(1, SMALL_BIN_MAX),
    st.integers(SMALL_BIN_MAX + 1, 3000),
    st.sampled_from([40, 248, 264, 300, 500, 1000, 2000]),
)


class TestScanEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([ALIGNMENT, 64]),
        # Long scripts: equal-size chunks and exact-size requests need a
        # few dozen steps of allocating and freeing to line up.
        st.lists(
            st.tuples(st.booleans(), SIZES, st.integers(0, 1 << 16)),
            min_size=50,
            max_size=200,
        ),
    )
    def test_matches_scan_reference(self, granularity, script):
        fast = DlMalloc(BASE, SIZE, granularity)
        slow = _ScanDlMalloc(BASE, SIZE, granularity)
        assert _state(fast) == _state(slow)
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
                assert _span(got) == _span(want)
                if got is not None:
                    live_fast.append(got)
                    live_slow.append(want)
            assert _state(fast) == _state(slow)
            # The fast bins hold the very chunks of the chunk map.
            for chunk in fast._large_bin:
                assert fast._chunks[chunk.address] is chunk

    def test_equal_sizes_take_the_first_and_insert_before(self):
        """Three free 512-byte chunks: each freed chunk goes in before
        those of its size, and a request for exactly 512 bytes takes the
        first of them, counting one list op."""
        fast = DlMalloc(BASE, SIZE)
        slow = _ScanDlMalloc(BASE, SIZE, ALIGNMENT)
        for heap in (fast, slow):
            chunks = [heap.allocate(500) for _ in range(7)]
            for chunk in chunks[0:6:2]:
                heap.release(chunk)
            assert [_span(c) for c in heap._large_bin[:3]] == [
                _span(chunks[4]), _span(chunks[2]), _span(chunks[0]),
            ]
            heap.ops.reset()
            assert _span(heap.allocate(500)) == (chunks[4].address, 512)
            assert heap.ops.list_ops == 1
        assert _state(fast) == _state(slow)

    def test_miss_counts_the_whole_large_bin(self):
        fast = DlMalloc(BASE, SIZE)
        slow = _ScanDlMalloc(BASE, SIZE, ALIGNMENT)
        for heap in (fast, slow):
            keep = [heap.allocate(600) for _ in range(5)]
            heap.release(keep[1])
            heap.release(keep[3])
            heap.ops.reset()
            with pytest.raises(HeapExhausted):
                heap.allocate(SIZE)
        assert _state(fast) == _state(slow)
        assert fast.ops.list_ops == len(fast._large_bin) == 3


class TestFailedAttemptCountedOnce:
    def test_out_of_memory_counts_one_attempt(self):
        """A BASELINE heap refuses at once after its failed first try: the
        attempt's scan of the large bin is in the counters exactly once."""
        heap = System.build(mode=TemporalSafetyMode.BASELINE).allocator
        live = []
        while True:
            try:
                live.append(heap.malloc(500))
            except OutOfMemory:
                break
        for cap in live[::2]:
            heap.free(cap)
        snapshot = copy.deepcopy(heap.dl)
        with pytest.raises(OutOfMemory):
            heap.malloc(1000)
        with pytest.raises(HeapExhausted):
            snapshot.allocate(1000)
        assert snapshot.ops.list_ops == len(snapshot._large_bin) > 0
        assert _state(heap.dl) == _state(snapshot)

    #: ``(cycles, revocation passes, refused mallocs)`` of
    #: ``_random_run``, charged by the allocator before its paths were
    #: flattened.  Every failed attempt, retry, charge and pass must
    #: still land the same.
    EXPECTED = {
        (CoreKind.IBEX, TemporalSafetyMode.BASELINE): (166565, 0, 184),
        (CoreKind.IBEX, TemporalSafetyMode.METADATA): (4005911, 0, 184),
        (CoreKind.IBEX, TemporalSafetyMode.SOFTWARE): (107833754, 452, 183),
        (CoreKind.IBEX, TemporalSafetyMode.HARDWARE): (38196770, 451, 195),
        (CoreKind.FLUTE, TemporalSafetyMode.BASELINE): (157274, 0, 184),
        (CoreKind.FLUTE, TemporalSafetyMode.METADATA): (1925673, 0, 184),
        (CoreKind.FLUTE, TemporalSafetyMode.SOFTWARE): (46432624, 452, 183),
        (CoreKind.FLUTE, TemporalSafetyMode.HARDWARE): (22305348, 451, 195),
    }

    @pytest.mark.parametrize("core, mode", sorted(
        EXPECTED, key=lambda key: (key[0].value, key[1].value)
    ), ids=lambda v: v.value)
    def test_random_run_cycles_unchanged(self, core, mode):
        system = System.build(core=core, mode=mode)
        heap = system.allocator
        rng = random.Random(1)
        live, refused = [], 0
        for _ in range(3000):
            if live and rng.random() < 0.45:
                heap.free(live.pop(rng.randrange(len(live))))
                continue
            if rng.random() < 0.3:
                size = rng.randint(1, 70 * 1024)
            else:
                size = rng.randint(1, 600)
            try:
                live.append(heap.malloc(size))
            except OutOfMemory:
                refused += 1
        got = (system.core_model.cycles, heap.stats.revocation_passes, refused)
        assert got == self.EXPECTED[core, mode]

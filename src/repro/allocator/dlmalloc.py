"""A dlmalloc-style boundary-tagged heap (paper section 5.1).

The paper builds its allocator on dlmalloc: boundary tags and in-band
metadata are preferred on embedded devices over size-class or buddy
allocators because of memory constraints.  This module implements the
chunk layer: 8-byte headers, binned free lists and address-ordered
coalescing, over a region that starts as one free chunk.  The
temporal-safety layers (revocation painting, quarantine) live above it
in :mod:`repro.allocator.heap`.

The allocator counts its elementary operations (header touches and
free-list links) so the cycle model can charge mechanistic costs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional

#: Size of a chunk header (boundary tag) in bytes.
HEADER_SIZE = 8
#: All chunk sizes and payload addresses are multiples of this.
ALIGNMENT = 8
#: Smallest chunk (header + minimal payload).
MIN_CHUNK_SIZE = HEADER_SIZE + ALIGNMENT
#: Exact-fit small bins cover payloads up to this size.
SMALL_BIN_MAX = 256


class HeapExhausted(Exception):
    """No chunk large enough (caller may revoke quarantine and retry)."""


class HeapCorruption(Exception):
    """Inconsistent chunk metadata (double free, bad pointer...)."""


@dataclass(slots=True, eq=False)
class Chunk:
    """One chunk: ``[address, address + size)`` with an 8-byte header.

    Chunks compare by identity: every bin lookup and removal is for one
    exact chunk object, never for an equal-looking one.
    """

    address: int
    size: int  # total size including header
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


@dataclass(slots=True)
class AllocatorOps:
    """Elementary-operation counters for the cycle model."""

    header_reads: int = 0
    header_writes: int = 0
    list_ops: int = 0

    def reset(self) -> None:
        self.header_reads = 0
        self.header_writes = 0
        self.list_ops = 0


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


#: Sort key of the large bin.
_size = attrgetter("size")


class DlMalloc:
    """The boundary-tagged chunk allocator over ``[base, base+size)``."""

    def __init__(self, base: int, size: int, chunk_granularity: int = ALIGNMENT) -> None:
        """``chunk_granularity`` rounds every chunk size to a multiple

        of that many bytes (and the heap base must be aligned to it) so
        no two chunks ever share a coarser revocation granule —
        section 3.3.1's bitmap/padding trade-off."""
        if chunk_granularity < ALIGNMENT or chunk_granularity % ALIGNMENT:
            raise ValueError(f"bad chunk granularity: {chunk_granularity}")
        if base % chunk_granularity or size % chunk_granularity:
            raise ValueError("heap region must be granularity-aligned")
        if size < MIN_CHUNK_SIZE:
            raise ValueError("heap region too small")
        self.base = base
        self.size = size
        self.chunk_granularity = chunk_granularity
        self.ops = AllocatorOps()
        # All chunks, by address (both free and in use); adjacency is
        # recovered arithmetically as dlmalloc does with boundary tags.
        self._chunks: Dict[int, Chunk] = {}
        # End-address index: the O(1) equivalent of dlmalloc's prev-size
        # boundary tag (chunk whose end is X, if any).
        self._by_end: Dict[int, Chunk] = {}
        # Exact-fit small bins: chunk size -> LIFO list of chunks.
        self._small_bins: Dict[int, List[Chunk]] = {}
        # dlmalloc's smallmap: bit ``size // ALIGNMENT`` is set exactly
        # when the small bin for chunk size ``size`` is non-empty.
        self._smallmap = 0
        # Large chunks: a single size-sorted list (dlmalloc's tree bins,
        # collapsed — search cost is still counted per visited node).
        self._large_bin: List[Chunk] = []
        whole = Chunk(base, size, free=True)
        self._chunks[base] = whole
        self._by_end[whole.end] = whole
        self._insert_free(whole)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def chunk_at_payload(self, payload_address: int) -> Chunk:
        """Find the chunk owning a payload address (header lookup)."""
        self.ops.header_reads += 1
        chunk = self._chunks.get(payload_address - HEADER_SIZE)
        if chunk is None or chunk.free:
            raise HeapCorruption(
                f"no allocated chunk with payload at {payload_address:#x}"
            )
        return chunk

    @property
    def free_bytes(self) -> int:
        total = sum(c.size for c in self._chunks.values() if c.free)
        return total

    def check_invariants(self) -> None:
        """Walk the heap verifying boundary-tag consistency (tests)."""
        address = self.base
        while address < self.base + self.size:
            chunk = self._chunks.get(address)
            if chunk is None:
                raise HeapCorruption(f"hole in chunk chain at {address:#x}")
            if chunk.size < MIN_CHUNK_SIZE or chunk.size % ALIGNMENT:
                raise HeapCorruption(f"bad chunk size at {address:#x}")
            address = chunk.end
        if address != self.base + self.size:
            raise HeapCorruption("chunk chain overruns the heap")

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, payload_size: int) -> Chunk:
        """Allocate a chunk with at least ``payload_size`` payload bytes.

        Raises :class:`HeapExhausted` when no chunk fits — the caller
        (the temporal-safety layer) may then force a revocation pass to
        reap quarantine and retry.
        """
        if payload_size <= 0:
            raise ValueError("allocation size must be positive")
        needed = _round_up(payload_size + HEADER_SIZE, self.chunk_granularity)
        if needed < MIN_CHUNK_SIZE:
            needed = MIN_CHUNK_SIZE

        chunk = self._take_small(needed) or self._take_large(needed)
        if chunk is None:
            raise HeapExhausted(f"no chunk of {needed} bytes available")
        # Split the remainder back to the free structures.
        ops = self.ops
        address = chunk.address
        size = chunk.size
        remainder = size - needed
        if remainder >= max(MIN_CHUNK_SIZE, self.chunk_granularity):
            split = address + needed
            rest = Chunk(split, remainder, True)
            chunk.size = needed
            self._by_end[split] = chunk
            self._chunks[split] = rest
            self._by_end[address + size] = rest
            self._insert_free(rest)
            ops.header_writes += 2
        chunk.free = False
        ops.header_writes += 1
        return chunk

    def _take_small(self, needed: int) -> Optional[Chunk]:
        if needed > SMALL_BIN_MAX + HEADER_SIZE:
            return None
        # Exact bin first, then the next sizes up: the lowest set bit of
        # the smallmap at or above the request names the bin.  The ops
        # still count a bin-by-bin scan: one list op per bin position
        # visited, and one for the unlink.
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

    def _take_large(self, needed: int) -> Optional[Chunk]:
        # Best fit over the size-sorted large list: the first chunk at
        # least as large as the request.  The ops still count a scan of
        # the list: one per chunk visited, so index + 1 on a hit and the
        # whole list on a miss.
        large = self._large_bin
        index = bisect_left(large, needed, key=_size)
        if index == len(large):
            self.ops.list_ops += index
            return None
        self.ops.list_ops += index + 1
        return large.pop(index)

    # ------------------------------------------------------------------
    # Release (after any quarantine period)
    # ------------------------------------------------------------------

    def release(self, chunk: Chunk) -> None:
        """Return a chunk to the free structures, coalescing neighbours."""
        address = chunk.address
        if chunk.free:
            raise HeapCorruption(f"double release of chunk at {address:#x}")
        chunks = self._chunks
        if chunks.get(address) is not chunk:
            raise HeapCorruption(f"unknown chunk at {address:#x}")
        chunk.free = True
        ops = self.ops
        ops.header_writes += 1
        by_end = self._by_end
        end = address + chunk.size

        # Coalesce with the following chunk.
        nxt = chunks.get(end)
        ops.header_reads += 1
        if nxt is not None and nxt.free:
            self._remove_free(nxt)
            merged_end = end + nxt.size
            del chunks[end]
            del by_end[merged_end]
            del by_end[end]
            chunk.size = merged_end - address
            end = merged_end
            by_end[end] = chunk
            ops.header_writes += 1

        # Coalesce with the preceding chunk: its boundary tag is the
        # chunk whose end is this chunk's address.
        ops.header_reads += 1
        prev = by_end.get(address) if address != self.base else None
        if prev is not None and prev.free:
            self._remove_free(prev)
            del chunks[address]
            del by_end[address]
            del by_end[end]
            prev.size = end - prev.address
            chunk = prev
            by_end[end] = chunk
            ops.header_writes += 1

        self._insert_free(chunk)

    def _insert_free(self, chunk: Chunk) -> None:
        self.ops.list_ops += 1
        size = chunk.size
        if size <= SMALL_BIN_MAX + HEADER_SIZE:
            self._small_bins.setdefault(size, []).append(chunk)
            self._smallmap |= 1 << (size // ALIGNMENT)
        else:
            # Keep the large list sorted by size: a new chunk goes in
            # before the chunks of its own size, where a scan for the
            # first chunk at least as large would stop.
            large = self._large_bin
            large.insert(bisect_left(large, size, key=_size), chunk)

    def _remove_free(self, chunk: Chunk) -> None:
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

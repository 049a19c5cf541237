"""A dlmalloc-style boundary-tagged heap (paper section 5.1).

The paper builds its allocator on dlmalloc: boundary tags and in-band
metadata are preferred on embedded devices over size-class or buddy
allocators because of memory constraints.  This module implements the
chunk layer: 8-byte headers, binned free lists, address-ordered
coalescing, and a wilderness (top) chunk.  The temporal-safety layers
(revocation painting, quarantine) live above it in
:mod:`repro.allocator.heap`.

The allocator counts its elementary operations (header touches and
free-list links) so the cycle model can charge mechanistic costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class Chunk:
    """One chunk: ``[address, address + size)`` with an 8-byte header."""

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


@dataclass
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
        top = Chunk(base, size, free=True)
        self._chunks[base] = top
        self._by_end[top.end] = top
        self._top: Optional[Chunk] = top
        self._insert_free(top)

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

    @property
    def allocated_bytes(self) -> int:
        return sum(c.size for c in self._chunks.values() if not c.free)

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
        remainder = chunk.size - needed
        if remainder >= max(MIN_CHUNK_SIZE, self.chunk_granularity):
            rest = Chunk(chunk.address + needed, remainder, free=True)
            chunk.size = needed
            self._by_end[chunk.end] = chunk
            self._chunks[rest.address] = rest
            self._by_end[rest.end] = rest
            self._insert_free(rest)
            self.ops.header_writes += 2
        chunk.free = False
        self.ops.header_writes += 1
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
        # Best fit over the sorted large list.
        for index, chunk in enumerate(self._large_bin):
            self.ops.list_ops += 1
            if chunk.size >= needed:
                if chunk is self._top:
                    self._top = None
                return self._large_bin.pop(index)
        return None

    # ------------------------------------------------------------------
    # Release (after any quarantine period)
    # ------------------------------------------------------------------

    def release(self, chunk: Chunk) -> None:
        """Return a chunk to the free structures, coalescing neighbours."""
        if chunk.free:
            raise HeapCorruption(f"double release of chunk at {chunk.address:#x}")
        if self._chunks.get(chunk.address) is not chunk:
            raise HeapCorruption(f"unknown chunk at {chunk.address:#x}")
        chunk.free = True
        self.ops.header_writes += 1

        # Coalesce with the following chunk.
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

        # Coalesce with the preceding chunk (found via boundary tag).
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

    def _chunk_before(self, address: int) -> Optional[Chunk]:
        """The chunk whose end is ``address`` (prev-size boundary tag)."""
        self.ops.header_reads += 1
        if address == self.base:
            return None
        return self._by_end.get(address)

    def _insert_free(self, chunk: Chunk) -> None:
        self.ops.list_ops += 1
        if chunk.size <= SMALL_BIN_MAX + HEADER_SIZE:
            self._small_bins.setdefault(chunk.size, []).append(chunk)
            self._smallmap |= 1 << (chunk.size // ALIGNMENT)
        else:
            # Keep the large list sorted by size (insertion point scan).
            index = 0
            for index, existing in enumerate(self._large_bin):
                if existing.size >= chunk.size:
                    break
            else:
                index = len(self._large_bin)
            self._large_bin.insert(index, chunk)
            if self._top is None or chunk.end == self.base + self.size:
                if chunk.end == self.base + self.size:
                    self._top = chunk

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
            if self._top is chunk:
                self._top = None
            return
        raise HeapCorruption(f"free chunk missing from large bin: {chunk}")

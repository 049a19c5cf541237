"""The heap revocation bitmap (paper section 3.3.1).

Each 8-byte heap allocation granule has one *revocation bit*: set means
the granule belongs to a freed (quarantined) chunk and capabilities
whose **base** points into it must be invalidated by the load filter.
The SRAM overhead is 1/(8*8) = 1.56 % of the revocable (heap) region —
and only the heap region need carry bits at all.

The bitmap is exposed to software as a memory-mapped region; the RTOS
loader grants a capability to it *only* to the allocator compartment.
"""

from __future__ import annotations

from repro.capability import CAP_SIZE_BYTES

#: Bytes of heap covered by one revocation bit.
GRANULE_BYTES = CAP_SIZE_BYTES

#: SRAM overhead of the revocation bitmap relative to the covered heap.
SRAM_OVERHEAD = 1.0 / (GRANULE_BYTES * 8)


class RevocationMap:
    """Revocation bits covering ``[heap_base, heap_base + heap_size)``.

    ``granule_bytes`` defaults to the capability-alignment 8 bytes the
    paper picks; larger granules shrink the bitmap SRAM proportionally
    at the cost of extra allocation padding ("a larger granule size,
    for a smaller revocation bitmap, is possible, at the cost of some
    allocations requiring more padding" — section 3.3.1).  The
    allocator must then round chunks to the granule so no two
    allocations share a revocation bit.
    """

    def __init__(
        self, heap_base: int, heap_size: int, granule_bytes: int = GRANULE_BYTES
    ) -> None:
        if granule_bytes < GRANULE_BYTES or granule_bytes % GRANULE_BYTES:
            raise ValueError(
                f"granule must be a multiple of {GRANULE_BYTES}: {granule_bytes}"
            )
        if heap_base % granule_bytes or heap_size % granule_bytes:
            raise ValueError("heap region must be granule-aligned")
        self.heap_base = heap_base
        self.heap_size = heap_size
        self.granule_bytes = granule_bytes
        self._bits = bytearray(heap_size // granule_bytes)
        # Runs are stored through a view: a bytes right-hand side of a
        # bytearray slice store is first copied into a new bytearray.
        self._bits_view = memoryview(self._bits)

    @property
    def granule_count(self) -> int:
        return len(self._bits)

    @property
    def bitmap_bytes(self) -> int:
        """Size of the bitmap SRAM in bytes (for overhead accounting)."""
        return (self.granule_count + 7) // 8

    def covers(self, address: int) -> bool:
        """True when ``address`` falls in the revocable region."""
        return self.heap_base <= address < self.heap_base + self.heap_size

    def is_revoked(self, address: int) -> bool:
        """The load filter's lookup: is the granule at ``address`` freed?

        Addresses outside the revocable region are never revoked (code,
        globals and stacks are irrevocable — section 3.3.1).
        """
        if not self.covers(address):
            return False
        return bool(self._bits[(address - self.heap_base) // self.granule_bytes])

    def paint(self, address: int, size: int) -> None:
        """Set revocation bits over a freed chunk (``free()`` path)."""
        self._set_run(address, size, b"\x01")

    def clear(self, address: int, size: int) -> None:
        """Clear bits when quarantined memory is released for reuse."""
        self._set_run(address, size, b"\x00")

    def _set_run(self, address: int, size: int, bit: bytes) -> None:
        """Set every bit over ``[address, address + size)`` to ``bit``.

        The run is checked once; a run leaving the region raises
        ``ValueError`` naming its first byte when that is outside, else
        its last.  A non-positive ``size`` changes nothing.
        """
        if size <= 0:
            return
        off = address - self.heap_base
        end = off + size - 1
        if off < 0 or end >= self.heap_size:
            bad = address if not 0 <= off < self.heap_size else address + size - 1
            raise ValueError(f"address {bad:#x} outside revocable region")
        first = off // self.granule_bytes
        last = end // self.granule_bytes
        self._bits_view[first : last + 1] = bit * (last + 1 - first)

    def any_revoked(self) -> bool:
        return any(self._bits)

    # ------------------------------------------------------------------
    # Memory-mapped view (one bit per granule, packed little-endian)
    # ------------------------------------------------------------------

    def mmio_read(self, offset: int) -> int:
        """Read 32 revocation bits as a word at byte ``offset``."""
        word = 0
        for bit in range(32):
            idx = offset * 8 + bit
            if idx < len(self._bits) and self._bits[idx]:
                word |= 1 << bit
        return word

    def mmio_write(self, offset: int, value: int) -> None:
        """Write 32 revocation bits at byte ``offset`` (allocator only)."""
        for bit in range(32):
            idx = offset * 8 + bit
            if idx < len(self._bits):
                self._bits[idx] = (value >> bit) & 1

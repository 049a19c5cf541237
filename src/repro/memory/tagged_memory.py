"""Tagged SRAM: byte-addressable memory with out-of-band capability tags.

Each 8-byte granule (the size of a stored capability) carries one tag
bit, stored out of band like the 65th bit of Flute's memory bus or the
replicated 33rd bit on Ibex (paper section 4).  The invariants the
hardware maintains:

* a capability store sets the granule's tag iff the stored value is a
  tagged capability;
* **any** data write that touches a granule clears its tag — partial
  overwrites cannot leave a forgeable half-capability behind.

Every store lands in place: slices go through a ``memoryview`` of each
bank array (CPython copies the right-hand side of a ``bytearray`` slice
store into a temporary ``bytearray`` unless it is one already), and
words and capabilities through precompiled ``struct`` formats.
"""

from __future__ import annotations

from struct import Struct
from typing import Optional

from repro.capability import CAP_SIZE_BYTES, Capability, unpack
from repro.capability.encoding import pack

#: ``offset >> _GRANULE_SHIFT`` is the index of the granule holding it.
_GRANULE_SHIFT = CAP_SIZE_BYTES.bit_length() - 1

#: Per word size: its little-endian unsigned format and its value mask.
_WORDS = {
    1: (Struct("<B"), 0xFF),
    2: (Struct("<H"), 0xFFFF),
    4: (Struct("<I"), 0xFFFF_FFFF),
}

#: A stored capability's 64 bits, address in the low word.
_CAP = Struct("<Q")


class MemoryError_(Exception):
    """Out-of-range or misaligned physical access."""


def _word_size_error(size) -> ValueError:
    return ValueError(f"word access of {size!r} bytes: size must be 1, 2 or 4")


class TaggedMemory:
    """A bank of SRAM with one tag bit per 8-byte granule."""

    def __init__(self, base: int, size: int) -> None:
        if size % CAP_SIZE_BYTES != 0:
            raise ValueError(f"size must be a multiple of {CAP_SIZE_BYTES}")
        if base % CAP_SIZE_BYTES != 0:
            raise ValueError(f"base must be {CAP_SIZE_BYTES}-byte aligned")
        self.base = base
        self.size = size
        self._data = bytearray(size)
        self._tags = bytearray(size // CAP_SIZE_BYTES)
        # The arrays are never resized, so the views stay valid; they
        # refer to the arrays, not to the bank, so they form no cycle.
        self._data_view = memoryview(self._data)
        self._tags_view = memoryview(self._tags)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def contains(self, address: int, size: int = 1) -> bool:
        """True when the byte range lies fully within this bank."""
        return self.base <= address and address + size <= self.base + self.size

    def _offset(self, address: int, size: int) -> int:
        if not self.contains(address, size):
            raise MemoryError_(
                f"access [{address:#x}, +{size}) outside bank "
                f"[{self.base:#x}, +{self.size:#x})"
            )
        return address - self.base

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def read_bytes(self, address: int, size: int) -> bytes:
        """``size`` bytes from ``address``; a negative ``size`` raises
        ``ValueError`` before the range check."""
        if size < 0:
            raise ValueError(f"read of {size!r} bytes: size must not be negative")
        off = self._offset(address, size)
        return self._data_view[off : off + size].tobytes()

    def write_bytes(self, address: int, data: bytes) -> None:
        """Data write: clears the tag of every granule touched.

        An empty write touches no granule, so it changes nothing (even
        at the bank's exact end, where no granule follows).
        """
        size = len(data)
        off = self._offset(address, size)
        if not size:
            return
        self._data_view[off : off + size] = data
        self._data_written(off, size)

    def _data_written(self, off: int, size: int) -> None:
        """After a data write of ``size > 0`` bytes at ``off``: clear the
        tag of every granule it touched.

        The one copy of the data-write tag rule (``write_bytes``,
        ``write_word`` and ``fill`` all end here).
        """
        first = off >> _GRANULE_SHIFT
        last = (off + size - 1) >> _GRANULE_SHIFT
        if first == last:
            # Common case: a word-or-smaller store inside one granule.
            self._tags[first] = 0
        else:
            self._tags_view[first : last + 1] = bytes(last + 1 - first)

    def read_word(self, address: int, size: int = 4) -> int:
        """Little-endian unsigned read of 1, 2 or 4 bytes.

        Any other ``size`` raises ``ValueError`` before the alignment
        and range checks.
        """
        try:
            fmt = _WORDS[size][0]
        except KeyError:
            raise _word_size_error(size) from None
        if address % size:
            raise MemoryError_(f"misaligned {size}-byte read at {address:#x}")
        # Inlined read_bytes and bounds check: every guest load comes
        # through here.
        off = address - self.base
        if off < 0 or off + size > self.size:
            self._offset(address, size)  # raises with the standard message
        return fmt.unpack_from(self._data, off)[0]

    def write_word(self, address: int, value: int, size: int = 4) -> None:
        """Little-endian unsigned write of 1, 2 or 4 bytes; ``value`` is
        truncated to ``size`` bytes.  Any other ``size`` raises
        ``ValueError`` before the alignment and range checks."""
        try:
            fmt, mask = _WORDS[size]
        except KeyError:
            raise _word_size_error(size) from None
        if address % size:
            raise MemoryError_(f"misaligned {size}-byte write at {address:#x}")
        # Inlined write_bytes and bounds check, as in read_word: every
        # guest word store comes through here.
        off = address - self.base
        if off < 0 or off + size > self.size:
            self._offset(address, size)  # raises with the standard message
        fmt.pack_into(self._data, off, value & mask)
        self._data_written(off, size)

    def fill(self, address: int, size: int, value: int = 0) -> None:
        """Zero (or pattern-fill) a region, clearing tags — stack clearing.

        Exactly ``write_bytes`` of ``size`` copies of the low byte of
        ``value``, checked once: a non-positive ``size`` is an empty
        write, which only checks that ``address`` lies in the bank.
        """
        off = address - self.base
        if size <= 0:
            if off < 0 or off > self.size:
                self._offset(address, 0)  # raises with the standard message
            return
        if off < 0 or off + size > self.size:
            self._offset(address, size)  # raises with the standard message
        value &= 0xFF
        self._data_view[off : off + size] = (
            bytes((value,)) * size if value else bytes(size)
        )
        self._data_written(off, size)

    # ------------------------------------------------------------------
    # Capability access
    # ------------------------------------------------------------------

    def read_capability(self, address: int) -> Capability:
        """Load the 8-byte granule at ``address`` as a capability.

        The returned value carries the granule's tag; untagged granules
        decode to an untagged capability (just bits).
        """
        if address % CAP_SIZE_BYTES:
            raise MemoryError_(f"misaligned capability read at {address:#x}")
        off = address - self.base
        if off < 0 or off + CAP_SIZE_BYTES > self.size:
            self._offset(address, CAP_SIZE_BYTES)  # raises, as in read_word
        return unpack(
            _CAP.unpack_from(self._data, off)[0],
            self._tags[off >> _GRANULE_SHIFT] != 0,
        )

    def write_capability(self, address: int, cap: Capability) -> None:
        """Store a capability, setting the granule tag iff ``cap.tag``."""
        if address % CAP_SIZE_BYTES:
            raise MemoryError_(f"misaligned capability write at {address:#x}")
        off = address - self.base
        if off < 0 or off + CAP_SIZE_BYTES > self.size:
            self._offset(address, CAP_SIZE_BYTES)  # raises, as in read_word
        _CAP.pack_into(self._data, off, pack(cap))
        self._tags[off >> _GRANULE_SHIFT] = 1 if cap.tag else 0

    def tag_at(self, address: int) -> bool:
        """Inspect the tag of the granule containing ``address``."""
        off = self._offset(address, 1)
        return bool(self._tags[off >> _GRANULE_SHIFT])

    def clear_tag(self, address: int) -> None:
        """Clear one granule's tag (the revoker's invalidation write)."""
        off = self._offset(address, 1)
        self._tags[off >> _GRANULE_SHIFT] = 0

    def tagged_granules(self, start: Optional[int] = None, end: Optional[int] = None):
        """Yield addresses of tagged granules in ``[start, end)``.

        Skips untagged runs at C speed (``bytearray.find``) so sweeps
        over mostly-capability-free memory are cheap to simulate.
        """
        lo = self.base if start is None else max(start, self.base)
        hi = self.base + self.size if end is None else min(end, self.base + self.size)
        first = (lo - self.base) // CAP_SIZE_BYTES
        last = (hi - self.base) // CAP_SIZE_BYTES
        index = self._tags.find(1, first, last)
        while index != -1:
            yield self.base + index * CAP_SIZE_BYTES
            index = self._tags.find(1, index + 1, last)

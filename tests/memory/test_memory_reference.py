"""Tagged memory and the revocation map against their slice-based bodies.

``TaggedMemory`` and ``RevocationMap`` store through ``memoryview``s and
precompiled ``struct`` formats.  The reference classes below keep the
bodies they replaced: ``bytearray`` slice stores, ``int.from_bytes`` and
``int.to_bytes``.  Hypothesis drives the same operation sequence through
both, from the same tagged starting state; after every operation the
data bytes, the tags or revocation bits, the return value and any
exception's type and message must be equal.

The sequences cover fills with every byte value; 1-, 2- and 4-byte words
at aligned, unaligned and edge addresses; tagged and untagged capability
stores and ``clear_tag``; empty and out-of-range writes and negative-size
reads; ``tagged_granules`` windows; and, for the map, runs at and across
its edges, ``is_revoked`` and the memory-mapped word view.
"""

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import CAP_SIZE_BYTES, Capability, Permission as P, unpack
from repro.capability.encoding import pack
from repro.memory.revocation_map import RevocationMap
from repro.memory.tagged_memory import MemoryError_, TaggedMemory

BASE = 0x2000_0000
GRANULES = 16
SIZE = GRANULES * CAP_SIZE_BYTES
RW = {P.GL, P.LD, P.SD, P.MC, P.SL, P.LM, P.LG}


# ----------------------------------------------------------------------
# The references: the bodies the in-place stores replaced
# ----------------------------------------------------------------------


class ReferenceTaggedMemory:
    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size
        self._data = bytearray(size)
        self._tags = bytearray(size // CAP_SIZE_BYTES)

    def contains(self, address: int, size: int = 1) -> bool:
        return self.base <= address and address + size <= self.base + self.size

    def _offset(self, address: int, size: int) -> int:
        if not self.contains(address, size):
            raise MemoryError_(
                f"access [{address:#x}, +{size}) outside bank "
                f"[{self.base:#x}, +{self.size:#x})"
            )
        return address - self.base

    def _granule(self, offset: int) -> int:
        return offset // CAP_SIZE_BYTES

    def read_bytes(self, address: int, size: int) -> bytes:
        if size < 0:
            raise ValueError(f"read of {size!r} bytes: size must not be negative")
        off = self._offset(address, size)
        return bytes(self._data[off : off + size])

    def write_bytes(self, address: int, data: bytes) -> None:
        size = len(data)
        off = self._offset(address, size)
        if not size:
            return
        self._data[off : off + size] = data
        self._data_written(off, size)

    def _data_written(self, off: int, size: int) -> None:
        first = off // CAP_SIZE_BYTES
        last = (off + size - 1) // CAP_SIZE_BYTES
        if first == last:
            self._tags[first] = 0
        else:
            self._tags[first : last + 1] = bytes(last + 1 - first)

    def read_word(self, address: int, size: int = 4) -> int:
        if address % size != 0:
            raise MemoryError_(f"misaligned {size}-byte read at {address:#x}")
        off = address - self.base
        if off < 0 or off + size > self.size:
            self._offset(address, size)
        return int.from_bytes(self._data[off : off + size], "little")

    def write_word(self, address: int, value: int, size: int = 4) -> None:
        if address % size != 0:
            raise MemoryError_(f"misaligned {size}-byte write at {address:#x}")
        off = address - self.base
        if off < 0 or off + size > self.size:
            self._offset(address, size)
        self._data[off : off + size] = (
            value & ((1 << (8 * size)) - 1)
        ).to_bytes(size, "little")
        self._data_written(off, size)

    def fill(self, address: int, size: int, value: int = 0) -> None:
        off = address - self.base
        if size <= 0:
            if off < 0 or off > self.size:
                self._offset(address, 0)
            return
        if off < 0 or off + size > self.size:
            self._offset(address, size)
        self._data[off : off + size] = bytes([value & 0xFF]) * size
        self._data_written(off, size)

    def read_capability(self, address: int) -> Capability:
        if address % CAP_SIZE_BYTES != 0:
            raise MemoryError_(f"misaligned capability read at {address:#x}")
        off = self._offset(address, CAP_SIZE_BYTES)
        bits = int.from_bytes(self._data[off : off + CAP_SIZE_BYTES], "little")
        tag = bool(self._tags[self._granule(off)])
        return unpack(bits, tag)

    def write_capability(self, address: int, cap: Capability) -> None:
        if address % CAP_SIZE_BYTES != 0:
            raise MemoryError_(f"misaligned capability write at {address:#x}")
        off = self._offset(address, CAP_SIZE_BYTES)
        self._data[off : off + CAP_SIZE_BYTES] = pack(cap).to_bytes(
            CAP_SIZE_BYTES, "little"
        )
        self._tags[self._granule(off)] = 1 if cap.tag else 0

    def tag_at(self, address: int) -> bool:
        off = self._offset(address, 1)
        return bool(self._tags[self._granule(off)])

    def clear_tag(self, address: int) -> None:
        off = self._offset(address, 1)
        self._tags[self._granule(off)] = 0

    def tagged_granules(self, start: Optional[int] = None, end: Optional[int] = None):
        lo = self.base if start is None else max(start, self.base)
        hi = self.base + self.size if end is None else min(end, self.base + self.size)
        first = (lo - self.base) // CAP_SIZE_BYTES
        last = (hi - self.base) // CAP_SIZE_BYTES
        index = self._tags.find(1, first, last)
        while index != -1:
            yield self.base + index * CAP_SIZE_BYTES
            index = self._tags.find(1, index + 1, last)


class ReferenceRevocationMap:
    def __init__(self, heap_base: int, heap_size: int, granule_bytes: int) -> None:
        self.heap_base = heap_base
        self.heap_size = heap_size
        self.granule_bytes = granule_bytes
        self._bits = bytearray(heap_size // granule_bytes)

    def covers(self, address: int) -> bool:
        return self.heap_base <= address < self.heap_base + self.heap_size

    def is_revoked(self, address: int) -> bool:
        if not self.covers(address):
            return False
        return bool(self._bits[(address - self.heap_base) // self.granule_bytes])

    def paint(self, address: int, size: int) -> None:
        self._set_run(address, size, b"\x01")

    def clear(self, address: int, size: int) -> None:
        self._set_run(address, size, b"\x00")

    def _set_run(self, address: int, size: int, bit: bytes) -> None:
        if size <= 0:
            return
        off = address - self.heap_base
        end = off + size - 1
        if off < 0 or end >= self.heap_size:
            bad = address if not 0 <= off < self.heap_size else address + size - 1
            raise ValueError(f"address {bad:#x} outside revocable region")
        first = off // self.granule_bytes
        last = end // self.granule_bytes
        self._bits[first : last + 1] = bit * (last + 1 - first)

    def mmio_read(self, offset: int) -> int:
        word = 0
        for bit in range(32):
            idx = offset * 8 + bit
            if idx < len(self._bits) and self._bits[idx]:
                word |= 1 << bit
        return word

    def mmio_write(self, offset: int, value: int) -> None:
        for bit in range(32):
            idx = offset * 8 + bit
            if idx < len(self._bits):
                self._bits[idx] = (value >> bit) & 1


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

_EDGES = (-9, -8, -4, -2, -1, 0, 1, 7, 8, SIZE - 8, SIZE - 4, SIZE - 2,
          SIZE - 1, SIZE, SIZE + 1, SIZE + 8)


def addresses(align: int = 1):
    """Aligned, unaligned and edge addresses in and around the bank."""
    return st.one_of(
        st.integers(-2, SIZE // align + 1).map(lambda k: BASE + k * align),
        st.integers(-16, SIZE + 16).map(lambda off: BASE + off),
        st.sampled_from(_EDGES).map(lambda off: BASE + off),
    )


_CAP = Capability.from_bounds(BASE, 64, RW)
CAPS = (
    _CAP,
    _CAP.inc_address(40),
    Capability.from_bounds(BASE + 0x80, 0x1000, {P.LD, P.MC}, address=BASE + 0x90),
    _CAP.untagged(),
    Capability.null(0xFFFF_FFFF),
)

lengths = st.integers(-8, SIZE + 8)

memory_ops = st.one_of(
    st.tuples(st.just("fill"), addresses(), lengths,
              st.one_of(st.integers(0, 255), st.integers(-512, 512))),
    st.tuples(st.just("write_bytes"), addresses(),
              st.binary(max_size=SIZE + 8)),
    st.tuples(st.just("read_bytes"), addresses(), lengths),
    st.sampled_from((1, 2, 4)).flatmap(lambda size: st.tuples(
        st.just("write_word"), addresses(size),
        st.one_of(st.integers(0, 0xFFFF_FFFF), st.integers(-(1 << 40), 1 << 40)),
        st.just(size),
    )),
    st.sampled_from((1, 2, 4)).flatmap(lambda size: st.tuples(
        st.just("read_word"), addresses(size), st.just(size),
    )),
    st.tuples(st.just("write_capability"), addresses(CAP_SIZE_BYTES),
              st.sampled_from(CAPS)),
    st.tuples(st.just("read_capability"), addresses(CAP_SIZE_BYTES)),
    st.tuples(st.just("clear_tag"), addresses()),
    st.tuples(st.just("tag_at"), addresses()),
    st.tuples(st.just("tagged_granules"),
              st.one_of(st.none(), addresses()), st.one_of(st.none(), addresses())),
)


def outcome(bank, op):
    """``("ok", result, repr(result))`` or ``("raised", type, message)``."""
    name, *args = op
    try:
        result = getattr(bank, name)(*args)
        if name == "tagged_granules":
            result = list(result)
    except Exception as exc:  # compared with the reference's, type and text
        return ("raised", type(exc), str(exc))
    return ("ok", result, repr(result))


def state(bank):
    return bytes(bank._data), bytes(bank._tags)


@settings(max_examples=60, deadline=None)
@given(
    st.binary(min_size=SIZE, max_size=SIZE),
    st.lists(st.booleans(), min_size=GRANULES, max_size=GRANULES),
    st.lists(memory_ops, min_size=8, max_size=32),
)
def test_tagged_memory_matches_slice_reference(data, tagged, ops):
    """From random bytes with a capability in each ``tagged`` granule."""
    mem, ref = TaggedMemory(BASE, SIZE), ReferenceTaggedMemory(BASE, SIZE)
    for bank in (mem, ref):
        bank.write_bytes(BASE, data)
        for index in range(GRANULES):
            if tagged[index]:
                bank.write_capability(BASE + index * CAP_SIZE_BYTES,
                                      CAPS[index % 3])
    assert state(mem) == state(ref)
    for step, op in enumerate(ops):
        got, want = outcome(mem, op), outcome(ref, op)
        assert got == want, (step, op)
        assert state(mem) == state(ref), (step, op)


def test_fill_with_every_byte_value():
    """Every byte value, and values whose low byte is one, over a
    tagged multi-granule run with unaligned ends."""
    mem, ref = TaggedMemory(BASE, SIZE), ReferenceTaggedMemory(BASE, SIZE)
    for value in [*range(256), 256, 0x1FF, -1, -256]:
        for bank in (mem, ref):
            for index in range(GRANULES):
                bank.write_capability(BASE + index * CAP_SIZE_BYTES, _CAP)
            bank.fill(BASE + 3, SIZE - 7, value)
        assert state(mem) == state(ref), value


# The map spans 12 granules of 8, 16 or 32 bytes.
MAP_GRANULES = 12


@st.composite
def map_ops(draw, granule: int):
    size = MAP_GRANULES * granule
    offsets = st.one_of(
        st.integers(-granule - 1, size + granule),
        st.sampled_from((-1, 0, 1, granule - 1, granule, size - granule,
                         size - 1, size, size + 1)),
    )
    kind = draw(st.sampled_from(
        ("paint", "clear", "is_revoked", "mmio_read", "mmio_write")
    ))
    if kind in ("paint", "clear"):
        return kind, BASE + draw(offsets), draw(st.integers(-4, size + 8))
    if kind == "is_revoked":
        return kind, BASE + draw(offsets)
    word = draw(st.integers(0, 2))  # the last word lies past the bits
    if kind == "mmio_read":
        return kind, word
    return kind, word, draw(st.integers(0, 0xFFFF_FFFF))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((8, 16, 32)), st.data())
def test_revocation_map_matches_slice_reference(granule, data):
    size = MAP_GRANULES * granule
    rmap = RevocationMap(BASE, size, granule_bytes=granule)
    ref = ReferenceRevocationMap(BASE, size, granule)
    initial = data.draw(st.integers(0, (1 << MAP_GRANULES) - 1))
    rmap.mmio_write(0, initial)
    ref.mmio_write(0, initial)
    ops = data.draw(st.lists(map_ops(granule), min_size=4, max_size=24))
    for step, op in enumerate(ops):
        assert outcome(rmap, op) == outcome(ref, op), (step, op)
        assert bytes(rmap._bits) == bytes(ref._bits), (step, op)

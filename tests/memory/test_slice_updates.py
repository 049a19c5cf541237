"""Runs of tag and revocation bits are updated by slice; the result must
be exactly what a per-granule loop over the same byte range leaves.

Covers unaligned starts and ends, writes inside one granule, and runs
that end on the region's last granule, from arbitrary starting bits;
then the error and edge spans, and word stores at the bank's edges,
which must fail (or do nothing) exactly as a reference model says.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import CAP_SIZE_BYTES, Capability, Permission as P
from repro.memory.revocation_map import RevocationMap
from repro.memory.tagged_memory import MemoryError_, TaggedMemory

BASE = 0x2000_0000
GRANULES = 48


@st.composite
def spans(draw, size: int, granule: int):
    """``(offset, length)`` of a non-empty byte run inside ``size`` bytes."""
    kind = draw(st.sampled_from(["any", "one_granule", "to_end"]))
    if kind == "one_granule":
        index = draw(st.integers(0, size // granule - 1))
        lo = draw(st.integers(0, granule - 1))
        hi = draw(st.integers(lo + 1, granule))
        return index * granule + lo, hi - lo
    start = draw(st.integers(0, size - 1))
    if kind == "to_end":
        return start, size - start
    return start, draw(st.integers(1, size - start))


def touched(granule_index: int, granule: int, offset: int, length: int) -> bool:
    lo = granule_index * granule
    return lo < offset + length and offset < lo + granule


def tagged_memory(initial_tags) -> TaggedMemory:
    mem = TaggedMemory(BASE, GRANULES * CAP_SIZE_BYTES)
    cap = Capability.from_bounds(BASE, 64, {P.LD, P.SD, P.MC})
    for index, tagged in enumerate(initial_tags):
        if tagged:
            mem.write_capability(BASE + index * CAP_SIZE_BYTES, cap)
    return mem


def tags_of(mem: TaggedMemory):
    return [mem.tag_at(BASE + i * CAP_SIZE_BYTES) for i in range(GRANULES)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.booleans(), min_size=GRANULES, max_size=GRANULES),
    spans(GRANULES * CAP_SIZE_BYTES, CAP_SIZE_BYTES),
    st.sampled_from(["write_bytes", "fill"]),
    st.integers(0, 255),
)
def test_tag_clearing_matches_per_granule_loop(initial, span, how, value):
    offset, length = span
    mem = tagged_memory(initial)
    if how == "write_bytes":
        data = bytes((value + i) & 0xFF for i in range(length))
        mem.write_bytes(BASE + offset, data)
    else:
        data = bytes([value]) * length
        mem.fill(BASE + offset, length, value)
    expected = [
        tagged and not touched(i, CAP_SIZE_BYTES, offset, length)
        for i, tagged in enumerate(initial)
    ]
    assert tags_of(mem) == expected
    assert mem.read_bytes(BASE + offset, length) == data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([8, 16, 32]), st.data())
def test_revocation_runs_match_per_granule_loop(granule, data):
    size = GRANULES * granule
    initial = data.draw(st.lists(st.booleans(), min_size=GRANULES, max_size=GRANULES))
    offset, length = data.draw(spans(size, granule))
    paint = data.draw(st.booleans())

    rmap = RevocationMap(BASE, size, granule_bytes=granule)
    for index, revoked in enumerate(initial):
        if revoked:
            rmap.paint(BASE + index * granule, 1)
    if paint:
        rmap.paint(BASE + offset, length)
    else:
        rmap.clear(BASE + offset, length)

    expected = [
        paint if touched(i, granule, offset, length) else revoked
        for i, revoked in enumerate(initial)
    ]
    assert [rmap.is_revoked(BASE + i * granule) for i in range(GRANULES)] == expected


# ----------------------------------------------------------------------
# Error and edge spans: outside the bank, straddling an end, and zero or
# negative sizes at, before and past the end.  The outcome (exception
# type and message, or the bytes, tags and bits left behind) must be
# exactly a reference model's, and a refused span must change nothing.
# ----------------------------------------------------------------------


@st.composite
def edge_spans(draw, size: int):
    """``(offset, length)`` from ``BASE``, biased to the region's edges."""
    kind = draw(st.sampled_from(
        ["outside", "straddle_end", "straddle_start", "nonpositive", "inside"]
    ))
    if kind == "outside":
        length = draw(st.integers(1, 64))
        before = draw(st.booleans())
        if before:
            return draw(st.integers(-128, -length)), length
        return draw(st.integers(size, size + 64)), length
    if kind == "straddle_end":
        start = draw(st.integers(size - 64, size - 1))
        return start, draw(st.integers(size - start + 1, size - start + 64))
    if kind == "straddle_start":
        start = draw(st.integers(-64, -1))
        return start, draw(st.integers(-start + 1, -start + 64))
    if kind == "nonpositive":
        offset = draw(st.one_of(
            st.sampled_from([-8, -1, 0, size - 1, size, size + 1, size + 8]),
            st.integers(-32, size + 32),
        ))
        return offset, draw(st.integers(-16, 0))
    start = draw(st.integers(0, size - 1))
    return start, draw(st.integers(1, size - start))


def bank_outcome(mem: TaggedMemory, address: int, length: int):
    """The reference: the message a data write of ``length`` bytes at
    ``address`` raises (a non-positive length writes nothing), or None."""
    length = max(length, 0)
    if mem.base <= address and address + length <= mem.base + mem.size:
        return None
    return (
        f"access [{address:#x}, +{length}) outside bank "
        f"[{mem.base:#x}, +{mem.size:#x})"
    )


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.booleans(), min_size=GRANULES, max_size=GRANULES),
    edge_spans(GRANULES * CAP_SIZE_BYTES),
    st.sampled_from(["write_bytes", "fill"]),
    st.integers(0, 255),
)
def test_bank_edge_spans_match_reference(initial, span, how, value):
    offset, length = span
    address = BASE + offset
    mem = tagged_memory(initial)
    data_before, tags_before = mem.read_bytes(BASE, mem.size), tags_of(mem)
    expected_error = bank_outcome(mem, address, length)
    if how == "write_bytes":
        length = max(length, 0)
        data = bytes((value + i) & 0xFF for i in range(length))

        def act():
            mem.write_bytes(address, data)
    else:
        data = bytes([value]) * max(length, 0)

        def act():
            mem.fill(address, length, value)

    if expected_error is not None:
        with pytest.raises(MemoryError_) as caught:
            act()
        assert type(caught.value) is MemoryError_
        assert str(caught.value) == expected_error
        assert mem.read_bytes(BASE, mem.size) == data_before
        assert tags_of(mem) == tags_before
        return
    act()
    written = max(length, 0)
    expected = [
        tagged and not (written and touched(i, CAP_SIZE_BYTES, offset, written))
        for i, tagged in enumerate(initial)
    ]
    assert tags_of(mem) == expected
    after = bytearray(data_before)
    after[offset : offset + written] = data
    assert mem.read_bytes(BASE, mem.size) == bytes(after)


def revmap_outcome(rmap: RevocationMap, address: int, length: int):
    """The reference: the message ``paint``/``clear`` raise, or None.

    A non-positive run changes nothing; otherwise the first byte is
    checked, then the last."""
    if length <= 0:
        return None
    for end in (address, address + length - 1):
        if not rmap.heap_base <= end < rmap.heap_base + rmap.heap_size:
            return f"address {end:#x} outside revocable region"
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([8, 16, 32]), st.data())
def test_revocation_edge_spans_match_reference(granule, data):
    size = GRANULES * granule
    initial = data.draw(st.lists(st.booleans(), min_size=GRANULES, max_size=GRANULES))
    offset, length = data.draw(edge_spans(size))
    paint = data.draw(st.booleans())
    address = BASE + offset

    rmap = RevocationMap(BASE, size, granule_bytes=granule)
    for index, revoked in enumerate(initial):
        if revoked:
            rmap.paint(BASE + index * granule, 1)
    def bits():
        return [rmap.is_revoked(BASE + i * granule) for i in range(GRANULES)]

    expected_error = revmap_outcome(rmap, address, length)
    act = rmap.paint if paint else rmap.clear
    if expected_error is not None:
        with pytest.raises(ValueError) as caught:
            act(address, length)
        assert type(caught.value) is ValueError
        assert str(caught.value) == expected_error
        assert bits() == initial
        return
    act(address, length)
    assert bits() == [
        paint if length > 0 and touched(i, granule, offset, length) else revoked
        for i, revoked in enumerate(initial)
    ]


def word_outcome(mem: TaggedMemory, address: int, size: int):
    """The reference: the message a ``size``-byte word store at
    ``address`` raises (alignment is checked first), or None."""
    if address % size:
        return f"misaligned {size}-byte write at {address:#x}"
    return bank_outcome(mem, address, size)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.booleans(), min_size=GRANULES, max_size=GRANULES),
    st.sampled_from([1, 2, 4]),
    st.one_of(
        st.integers(-8, 8),
        st.integers(GRANULES * CAP_SIZE_BYTES - 8, GRANULES * CAP_SIZE_BYTES + 8),
        st.integers(0, GRANULES * CAP_SIZE_BYTES - 1),
    ),
    st.integers(0, 0xFFFF_FFFF),
)
def test_word_store_edges_match_reference(initial, size, offset, value):
    """1-, 2- and 4-byte stores at, across and past either end of the
    bank, aligned or not: the same error as the reference, nothing
    changed by a refused store, and only the stored granule's tag
    cleared by an accepted one."""
    address = BASE + offset
    mem = tagged_memory(initial)
    data_before, tags_before = mem.read_bytes(BASE, mem.size), tags_of(mem)
    expected_error = word_outcome(mem, address, size)
    if expected_error is not None:
        with pytest.raises(MemoryError_) as caught:
            mem.write_word(address, value, size)
        assert type(caught.value) is MemoryError_
        assert str(caught.value) == expected_error
        assert mem.read_bytes(BASE, mem.size) == data_before
        assert tags_of(mem) == tags_before
        return
    mem.write_word(address, value, size)
    stored = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    after = bytearray(data_before)
    after[offset : offset + size] = stored
    assert mem.read_bytes(BASE, mem.size) == bytes(after)
    assert mem.read_word(address, size) == int.from_bytes(stored, "little")
    assert tags_of(mem) == [
        tagged and i != offset // CAP_SIZE_BYTES
        for i, tagged in enumerate(initial)
    ]

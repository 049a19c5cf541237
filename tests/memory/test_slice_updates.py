"""Runs of tag and revocation bits are updated by slice; the result must
be exactly what a per-granule loop over the same byte range leaves.

Covers unaligned starts and ends, writes inside one granule, and runs
that end on the region's last granule, from arbitrary starting bits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import CAP_SIZE_BYTES, Capability, Permission as P
from repro.memory.revocation_map import RevocationMap
from repro.memory.tagged_memory import TaggedMemory

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

"""Property-based checks on the bounds encoding.

The paper verified encoding properties with Sail's SMT backend
(section 3.2.3); these hypothesis properties are our equivalent:
containment, monotone rounding, precision for small objects, and the
no-representable-range-below-base guarantee.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.capability.bounds import (
    ADDRESS_BITS,
    E_FIELD_MAX,
    EXPONENT_MAX,
    MAX_PRECISE_LENGTH,
    BoundsError,
    EncodedBounds,
    decode,
    encode,
    exponent_for_length,
    is_representable,
)

addresses = st.integers(min_value=0, max_value=(1 << ADDRESS_BITS) - 1)
lengths = st.integers(min_value=0, max_value=1 << ADDRESS_BITS)


def _fits(base, length):
    return base + length <= (1 << ADDRESS_BITS)


@given(addresses, lengths)
def test_requested_region_always_contained(base, length):
    """csetbounds never narrows below the request (monotone outward)."""
    assume(_fits(base, length))
    enc, actual_base, actual_top = encode(base, length)
    assert actual_base <= base
    assert actual_top >= base + length


@given(addresses, lengths)
def test_decode_at_base_matches_encoded_bounds(base, length):
    assume(_fits(base, length))
    enc, actual_base, actual_top = encode(base, length)
    assert decode(base, enc) == (actual_base, actual_top)


@given(addresses, st.integers(min_value=1, max_value=MAX_PRECISE_LENGTH))
def test_small_objects_encode_exactly(base, length):
    """Objects of up to 511 bytes can always be represented precisely."""
    assume(_fits(base, length))
    enc, actual_base, actual_top = encode(base, length, exact=True)
    assert (actual_base, actual_top) == (base, base + length)


@given(addresses, lengths)
def test_rounding_bounded_by_exponent_granule(base, length):
    """Padding on either side is strictly less than one 2**e granule."""
    assume(_fits(base, length))
    enc, actual_base, actual_top = encode(base, length)
    granule = 1 << enc.exponent
    assert base - actual_base < granule
    assert actual_top - (base + length) < granule


@given(addresses, lengths, addresses)
def test_representable_addresses_preserve_decode(base, length, probe):
    """is_representable is exactly 'decode unchanged' (the tag rule)."""
    assume(_fits(base, length))
    enc, actual_base, actual_top = encode(base, length)
    if is_representable(probe, enc, actual_base, actual_top):
        assert decode(probe, enc) == (actual_base, actual_top)
    else:
        assert decode(probe, enc) != (actual_base, actual_top)


@given(addresses, st.integers(min_value=1, max_value=1 << 20))
def test_no_representable_addresses_below_base(base, length):
    """Section 3.2.3: in all cases addresses below the base are invalid."""
    assume(_fits(base, length))
    enc, actual_base, actual_top = encode(base, length)
    assume(actual_base > 0)
    assert not is_representable(actual_base - 1, enc, actual_base, actual_top)


@given(addresses, st.integers(min_value=1, max_value=1 << 20))
def test_all_in_bounds_addresses_representable(base, length):
    """Every address inside the object decodes to the same bounds —

    pointer arithmetic within the object can never untag."""
    assume(_fits(base, length))
    enc, actual_base, actual_top = encode(base, length)
    span = actual_top - actual_base
    for offset in {0, 1, span // 2, span - 1}:
        probe = actual_base + offset
        if probe < (1 << ADDRESS_BITS):
            assert is_representable(probe, enc, actual_base, actual_top)


def _validating_encode(base, length, exact=False):
    """``encode`` as it read with ``EncodedBounds`` built through its
    validating constructor: the reference for results and errors."""
    if not 0 <= base <= (1 << ADDRESS_BITS) - 1:
        raise BoundsError(f"base out of range: {base:#x}")
    top = base + length
    if top > (1 << ADDRESS_BITS):
        raise BoundsError(f"top exceeds address space: {top:#x}")
    if length < 0:
        raise BoundsError("negative length")
    e = exponent_for_length(length)
    while True:
        granule = 1 << e
        rounded_base = base & ~(granule - 1)
        rounded_top = (top + granule - 1) & ~(granule - 1)
        if rounded_top - rounded_base <= (0x1FF << e):
            break
        if e >= EXPONENT_MAX:
            raise BoundsError(
                f"bounds [{base:#x}, {top:#x}) unrepresentable at max exponent"
            )
        e += 1
    if exact and (rounded_base != base or rounded_top != top):
        raise BoundsError(
            f"bounds [{base:#x}, {top:#x}) not exactly representable (e={e})"
        )
    e_field = E_FIELD_MAX if e == EXPONENT_MAX else e
    if E_FIELD_MAX <= e < EXPONENT_MAX:
        e, e_field = EXPONENT_MAX, E_FIELD_MAX
        granule = 1 << e
        rounded_base = base & ~(granule - 1)
        rounded_top = (top + granule - 1) & ~(granule - 1)
        if exact and (rounded_base != base or rounded_top != top):
            raise BoundsError(
                f"bounds [{base:#x}, {top:#x}) not exactly representable (e=24)"
            )
    encoded = EncodedBounds(
        e_field, (rounded_base >> e) & 0x1FF, (rounded_top >> e) & 0x1FF
    )
    return encoded, rounded_base, rounded_top


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - the type is compared
        return type(err), str(err)


#: Multiples of 2**24, the granule of the stored exponent 24.
granules_24 = st.integers(0, 255).map(lambda k: k << 24)
#: Bases, often aligned to a granule so that exact requests can succeed,
#: and a few outside the address space.
encode_bases = st.one_of(
    addresses,
    st.builds(lambda a, e: a & ~((1 << e) - 1), addresses, st.integers(0, 24)),
    granules_24,
    st.integers(-4, -1),
    st.integers(1 << ADDRESS_BITS, (1 << ADDRESS_BITS) + 4),
)
#: Lengths 0, 511 and 512, the band whose exponents 15 to 23 are stored
#: as 24 (with its exactly representable multiples of 2**24),
#: everything up to 2**32, and a few negative ones.
encode_lengths = st.one_of(
    st.sampled_from([0, 511, 512]),
    st.integers(MAX_PRECISE_LENGTH << 14, MAX_PRECISE_LENGTH << 23),
    granules_24.filter(bool),
    lengths,
    st.integers(-4, -1),
)


@settings(max_examples=1000)
@given(encode_bases, encode_lengths, st.booleans())
def test_encode_matches_the_validating_build(base, length, exact):
    """``encode`` writes ``EncodedBounds`` through its slots: the result
    equals the validating constructor's, field for field, and every
    error keeps its type and message."""
    got = _outcome(encode, base, length, exact)
    assert got == _outcome(_validating_encode, base, length, exact)
    if isinstance(got[0], EncodedBounds):
        enc = got[0]
        rebuilt = EncodedBounds(enc.exponent_field, enc.base_field, enc.top_field)
        assert type(enc) is EncodedBounds
        assert enc == rebuilt and hash(enc) == hash(rebuilt)

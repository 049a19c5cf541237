"""Tests for the E/B/T bounds encoding (paper Figure 3, section 3.2.3)."""

import pytest

from repro.capability.bounds import (
    ADDRESS_BITS,
    E_FIELD_MAX,
    EXPONENT_MAX,
    BoundsError,
    EncodedBounds,
    decode,
    encode,
    exponent_for_length,
    is_representable,
)


class TestFieldValidation:
    def test_field_ranges(self):
        EncodedBounds(0, 0, 0)
        EncodedBounds(0xF, 0x1FF, 0x1FF)
        with pytest.raises(BoundsError):
            EncodedBounds(16, 0, 0)
        with pytest.raises(BoundsError):
            EncodedBounds(0, 512, 0)
        with pytest.raises(BoundsError):
            EncodedBounds(0, 0, 512)

    def test_exponent_special_value(self):
        assert EncodedBounds(0xF, 0, 0).exponent == EXPONENT_MAX
        assert EncodedBounds(7, 0, 0).exponent == 7


class TestDecodeCorrections:
    """The four correction rows of Figure 3."""

    def test_no_no(self):
        # a_mid >= B and T >= B: both corrections zero.
        enc = EncodedBounds(0, 0x10, 0x20)
        base, top = decode(0x18, enc)
        assert (base, top) == (0x10, 0x20)

    def test_no_yes(self):
        # a_mid >= B, T < B: top is in the next 2**(e+9) region (c_t=+1).
        enc = EncodedBounds(0, 0x1F0, 0x010)
        address = 0x1F4
        base, top = decode(address, enc)
        assert base == 0x1F0
        assert top == 0x210  # 0x010 plus one region of 0x200

    def test_yes_no_case(self):
        # a_mid < B and T >= B: whole object is in the previous region.
        enc = EncodedBounds(0, 0x1F0, 0x1F8)
        address = 0x204  # a_mid = 0x004 < B
        base, top = decode(address, enc)
        assert base == 0x1F0
        assert top == 0x1F8

    def test_yes_yes(self):
        # a_mid < B, T < B: base in previous region, top in this one.
        enc = EncodedBounds(0, 0x1F0, 0x010)
        address = 0x200  # a_mid = 0 < B
        base, top = decode(address, enc)
        assert base == 0x1F0
        assert top == 0x210

    def test_exponent_scales_fields(self):
        enc = EncodedBounds(4, 2, 6)
        base, top = decode(0x40, enc)
        assert base == 2 << 4
        assert top == 6 << 4


class TestFullSpaceRoot:
    def test_root_covers_whole_address_space(self):
        enc, base, top = encode(0, 1 << ADDRESS_BITS)
        assert enc.exponent_field == E_FIELD_MAX
        assert (base, top) == (0, 1 << ADDRESS_BITS)
        assert decode(0, enc) == (0, 1 << ADDRESS_BITS)
        # Representable at arbitrary addresses too.
        assert decode(0xDEADBEEF, enc) == (0, 1 << ADDRESS_BITS)


class TestEncode:
    @pytest.mark.parametrize("length", [1, 8, 64, 255, 510, 511])
    def test_small_objects_always_precise(self, length):
        """Objects up to 511 bytes are exactly representable at any base."""
        for base in (0, 1, 7, 0x1234, 0xFFFF_F000):
            if base + length > (1 << ADDRESS_BITS):
                continue
            enc, actual_base, actual_top = encode(base, length, exact=True)
            assert actual_base == base
            assert actual_top == base + length
            assert enc.exponent == 0

    def test_larger_objects_round_outward(self):
        enc, base, top = encode(3, 1000)
        assert base <= 3
        assert top >= 1003
        assert (top - base) % (1 << enc.exponent) == 0

    def test_exact_raises_when_rounding_needed(self):
        with pytest.raises(BoundsError):
            encode(3, 1000, exact=True)

    def test_negative_length_rejected(self):
        with pytest.raises(BoundsError):
            encode(0, -1)

    def test_too_large_rejected(self):
        with pytest.raises(BoundsError):
            encode(8, 1 << ADDRESS_BITS)

    def test_encode_decode_roundtrip_when_exact(self):
        enc, base, top = encode(0x2000, 4096, exact=True)
        assert decode(0x2000, enc) == (0x2000, 0x2000 + 4096)

    def test_exponent_for_length(self):
        assert exponent_for_length(0) == 0
        assert exponent_for_length(511) == 0
        assert exponent_for_length(512) == 1
        assert exponent_for_length(1 << ADDRESS_BITS) == EXPONENT_MAX

    def test_unstorable_exponent_band_bumps_to_24(self):
        """Exponents 15..23 cannot be stored in the 4-bit E field."""
        length = 511 << 15  # needs e == 15
        enc, base, top = encode(0, length)
        assert enc.exponent_field == E_FIELD_MAX
        assert enc.exponent == EXPONENT_MAX
        assert top >= length


class TestRepresentability:
    def test_within_bounds_always_representable(self):
        enc, base, top = encode(0x1000, 256, exact=True)
        for address in (base, base + 1, top - 1):
            assert is_representable(address, enc, base, top)

    def test_below_base_is_never_representable(self):
        """Section 3.2.3: addresses below the base are invalid."""
        enc, base, top = encode(0x1000, 256, exact=True)
        assert not is_representable(base - 1, enc, base, top)
        assert not is_representable(base - 0x200, enc, base, top)

    def test_far_above_top_not_representable(self):
        enc, base, top = encode(0x1000, 256, exact=True)
        assert not is_representable(top + 0x10000, enc, base, top)

    def test_out_of_range_address(self):
        enc, base, top = encode(0x1000, 256)
        assert not is_representable(-1, enc, base, top)
        assert not is_representable(1 << 32, enc, base, top)

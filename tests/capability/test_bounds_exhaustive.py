"""Exhaustive cross-check of the bounds decoder against an independent

reference implementation.

The paper checked its encoding with Sail's SMT backend.  Our strongest
software equivalent: a second, naive implementation of Figure 3 written
in a deliberately different style (big-integer bit strings, no
wraparound tricks), compared exhaustively over small exponents and
densely-sampled field values, plus every corner the corrections table
can reach.
"""

from repro.capability.bounds import EncodedBounds, decode


def reference_decode(address: int, e_field: int, b_field: int, t_field: int):
    """Figure 3, transliterated: explicit bit-slicing, no masking tricks."""
    e = 24 if e_field == 0xF else e_field
    # a_top = a[31 : e+9], a_mid = a[e+8 : e]
    a_top = address >> (e + 9)
    a_mid = (address >> e) % 512

    if a_mid < b_field:
        c_b = -1
        c_t = 0 if t_field < b_field else -1
    else:
        c_b = 0
        c_t = 1 if t_field < b_field else 0

    base = (a_top + c_b) * (2 ** (e + 9)) + b_field * (2 ** e)
    top = (a_top + c_t) * (2 ** (e + 9)) + t_field * (2 ** e)
    # The hardware computes these in 32/33-bit modular arithmetic.
    base %= 2 ** 32
    top %= 2 ** 33
    return base, top


class TestExhaustive:
    def test_every_correction_case_small_exponents(self):
        """Dense sweep at e in {0, 1}: all four correction rows, both

        window positions, field extremes."""
        for e_field in (0, 1):
            for b_field in (0, 1, 255, 256, 510, 511):
                for t_field in (0, 1, 255, 256, 510, 511):
                    enc = EncodedBounds(e_field, b_field, t_field)
                    for address in range(0, 0x1000, 0x40 >> e_field or 1):
                        assert decode(address, enc) == reference_decode(
                            address, e_field, b_field, t_field
                        )

    def test_window_straddles_at_every_exponent(self):
        """Addresses straddling the 2**(e+9) region boundary are where

        the corrections bite; check them at every storable exponent."""
        for e_field in list(range(15)):
            e = 24 if e_field == 0xF else e_field
            region = 1 << (e + 9)
            for b_field, t_field in ((0x1F0, 0x010), (0x100, 0x0FF), (1, 0)):
                enc = EncodedBounds(e_field, b_field, t_field)
                for region_index in (0, 1, 2):
                    for offset in (-2 << e, -1 << e, 0, 1 << e, 2 << e):
                        address = region * region_index + offset
                        if 0 <= address < (1 << 32):
                            assert decode(address, enc) == reference_decode(
                                address, e_field, b_field, t_field
                            ), (e_field, b_field, t_field, hex(address))

    def test_full_space_exponent(self):
        for b_field, t_field in ((0, 256), (0, 0), (5, 300), (400, 100)):
            enc = EncodedBounds(0xF, b_field, t_field)
            for address in (0, 1, 0xFFFF_FFFF, 0x8000_0000, 0x00FF_FFFF):
                assert decode(address, enc) == reference_decode(
                    address, 0xF, b_field, t_field
                )

    def test_randomized_agreement(self):
        import random

        rng = random.Random(0xC4E21)
        for _ in range(20_000):
            e_field = rng.randrange(16)
            b_field = rng.randrange(512)
            t_field = rng.randrange(512)
            address = rng.randrange(1 << 32)
            enc = EncodedBounds(e_field, b_field, t_field)
            assert decode(address, enc) == reference_decode(
                address, e_field, b_field, t_field
            )

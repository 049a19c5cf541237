"""CHERIoT bounds encoding and decoding (paper Figure 3, section 3.2.3).

A capability's bounds are stored as a 4-bit exponent ``E`` plus 9-bit
``B`` (base) and ``T`` (top) fields.  Both bounds are ``2**e``-aligned
values positioned relative to the capability's 32-bit address ``a``:

* ``a_top = a[31 : e+9]`` — the address bits above the B/T window,
* ``a_mid = a[e+8 : e]`` — the 9 address bits aligned with B/T,
* ``base  = (a_top + c_b) << (e+9) | B << e``
* ``top   = (a_top + c_t) << (e+9) | T << e``

with corrections ``c_b``/``c_t`` chosen per the table in Figure 3:

=============  =========  =====  =====
``a_mid < B``  ``T < B``  c_b    c_t
=============  =========  =====  =====
no             no          0      0
no             yes         0      1
yes            no         -1     -1
yes            yes        -1      0
=============  =========  =====  =====

``E == 0xF`` denotes an exponent of 24 (so the root capabilities can
cover the whole 32-bit address space: ``T = 0x100 << 24 == 2**32``);
every other ``E`` maps directly to its unsigned value.

Compared to CHERI Concentrate, this trades *representable range* for
precision and simplicity: objects up to 511 bytes always encode exactly
(``e == 0``) and average internal fragmentation is ~0.19 %, but there is
no guaranteed out-of-bounds representable region — moving the address so
that the decode changes untags the capability, and addresses below the
base are never representable.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Width of the address space in bits.
ADDRESS_BITS = 32
#: Number of bits in each of the B and T fields.
MANTISSA_BITS = 9
#: Largest length representable with exponent zero (precise encoding).
MAX_PRECISE_LENGTH = (1 << MANTISSA_BITS) - 1  # 511 bytes
#: The E field value that denotes an exponent of 24.
E_FIELD_MAX = 0xF
#: The exponent that E == 0xF denotes.
EXPONENT_MAX = 24

_ADDR_MASK = (1 << ADDRESS_BITS) - 1
_MANTISSA_MASK = (1 << MANTISSA_BITS) - 1


class BoundsError(ValueError):
    """Requested bounds cannot be represented (e.g. length > 2**32)."""


@dataclass(frozen=True, slots=True)
class EncodedBounds:
    """The stored (E, B, T) triple of a capability."""

    exponent_field: int  # the 4-bit E field as stored
    base_field: int  # the 9-bit B field
    top_field: int  # the 9-bit T field

    def __post_init__(self) -> None:
        if not 0 <= self.exponent_field <= E_FIELD_MAX:
            raise BoundsError(f"E field out of range: {self.exponent_field}")
        if not 0 <= self.base_field <= _MANTISSA_MASK:
            raise BoundsError(f"B field out of range: {self.base_field}")
        if not 0 <= self.top_field <= _MANTISSA_MASK:
            raise BoundsError(f"T field out of range: {self.top_field}")

    @property
    def exponent(self) -> int:
        """The decoded exponent ``e`` (E == 0xF denotes 24)."""
        if self.exponent_field == E_FIELD_MAX:
            return EXPONENT_MAX
        return self.exponent_field


#: ``object.__new__`` and the ``__set__`` of each ``EncodedBounds`` slot,
#: bound once: ``encode`` writes the fields it has already validated
#: without the frozen class's ``__init__`` and ``__post_init__``.
_new = object.__new__
_set_exponent_field, _set_base_field, _set_top_field = (
    EncodedBounds.__dict__[name].__set__
    for name in ("exponent_field", "base_field", "top_field")
)


def decode(address: int, bounds: EncodedBounds) -> "tuple[int, int]":
    """Decode ``(base, top)`` for a capability at ``address``.

    ``base`` is a 32-bit address; ``top`` may be ``2**32`` (one past the
    end of the address space) for whole-address-space capabilities.
    Implements Figure 3 of the paper exactly.
    """
    if not 0 <= address <= _ADDR_MASK:
        raise BoundsError(f"address out of range: {address:#x}")
    e = bounds.exponent
    b_field = bounds.base_field
    t_field = bounds.top_field
    a_top = address >> (e + MANTISSA_BITS)
    a_mid = (address >> e) & _MANTISSA_MASK

    a_mid_lt_b = a_mid < b_field
    t_lt_b = t_field < b_field
    if not a_mid_lt_b and not t_lt_b:
        c_b, c_t = 0, 0
    elif not a_mid_lt_b and t_lt_b:
        c_b, c_t = 0, 1
    elif a_mid_lt_b and not t_lt_b:
        c_b, c_t = -1, -1
    else:
        c_b, c_t = -1, 0

    base = ((a_top + c_b) << (e + MANTISSA_BITS)) + (b_field << e)
    top = ((a_top + c_t) << (e + MANTISSA_BITS)) + (t_field << e)
    # Wrap to the 33-bit space in which top lives; base is a 32-bit
    # address.  Negative intermediate values (correction -1 at a_top 0)
    # wrap the same way the hardware's modular arithmetic does.
    base &= _ADDR_MASK
    top &= (1 << (ADDRESS_BITS + 1)) - 1
    return base, top


def exponent_for_length(length: int) -> int:
    """Smallest exponent whose 9-bit mantissa can span ``length`` bytes."""
    if length < 0:
        raise BoundsError("negative length")
    if length > (1 << ADDRESS_BITS):
        raise BoundsError(f"length exceeds address space: {length:#x}")
    e = 0
    while length > (_MANTISSA_MASK << e) and e < EXPONENT_MAX:
        e += 1
    return e


def encode(base: int, length: int, exact: bool = False) -> "tuple[EncodedBounds, int, int]":
    """Encode the bounds ``[base, base + length)``.

    Returns ``(encoded, actual_base, actual_top)``.  When the requested
    bounds are not exactly representable, the base is rounded *down* and
    the top rounded *up* to the encoding's ``2**e`` granularity — the
    monotone direction (never narrower than requested) used by
    ``csetbounds``.  With ``exact=True`` (``csetboundsexact`` semantics)
    a :class:`BoundsError` is raised instead of rounding.

    Objects of up to :data:`MAX_PRECISE_LENGTH` (511) bytes always encode
    precisely (section 3.2.3).
    """
    if not 0 <= base <= _ADDR_MASK:
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
        if rounded_top - rounded_base <= (_MANTISSA_MASK << e):
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
    # E field values 0xF..: exponent 24; values 14 and below are direct.
    # An exponent in (14, 24) cannot be stored: bump to 24.
    if E_FIELD_MAX <= e < EXPONENT_MAX:
        e = EXPONENT_MAX
        e_field = E_FIELD_MAX
        granule = 1 << e
        rounded_base = base & ~(granule - 1)
        rounded_top = (top + granule - 1) & ~(granule - 1)
        if exact and (rounded_base != base or rounded_top != top):
            raise BoundsError(
                f"bounds [{base:#x}, {top:#x}) not exactly representable (e=24)"
            )

    # Built through the slot descriptors, as ``capability._make`` builds
    # capabilities: ``__post_init__`` has nothing to check, because
    # ``e_field`` is at most 0xF by the mapping above and B and T are
    # masked to 9 bits here.
    encoded = _new(EncodedBounds)
    _set_exponent_field(encoded, e_field)
    _set_base_field(encoded, (rounded_base >> e) & _MANTISSA_MASK)
    _set_top_field(encoded, (rounded_top >> e) & _MANTISSA_MASK)
    return encoded, rounded_base, rounded_top


def is_representable(address: int, bounds: EncodedBounds, base: int, top: int) -> bool:
    """True when ``address`` still decodes to ``(base, top)``.

    CHERIoT has no guaranteed representable range beyond the bounds: a
    capability whose address is moved so the decode changes must be
    untagged (section 3.2.3).  This predicate is the check the hardware
    applies on ``cincaddr``/``csetaddr``.
    """
    if not 0 <= address <= _ADDR_MASK:
        return False
    return decode(address, bounds) == (base, top)


def _storable_exponent(e: int) -> int:
    """Exponents 15..23 cannot live in the 4-bit E field: jump to 24."""
    return e if e < E_FIELD_MAX else EXPONENT_MAX


def representable_granule(length: int) -> int:
    """``2**e`` for the *storable* exponent the encoder picks for a
    region of ``length`` bytes: the region is exactly encodable iff its
    base is aligned to, and its length padded to, this granule.

    Padding never needs a larger exponent: for the smallest ``e`` with
    ``length <= 511 * 2**e``, ``length`` rounded up to a multiple of
    ``2**e`` is still at most ``511 * 2**e``, and the storable exponent
    is never smaller than that ``e``.
    """
    return 1 << _storable_exponent(exponent_for_length(length))


def representable_alignment_mask(length: int) -> int:
    """``cram``: alignment mask for a precisely-representable region,
    ``~(granule - 1)`` over 32 bits (see :func:`representable_granule`)."""
    return -representable_granule(length) & _ADDR_MASK


def representable_length(length: int) -> int:
    """``crrl``: ``length`` rounded up to the encoder's granule."""
    granule = representable_granule(length)
    return (length + granule - 1) & -granule

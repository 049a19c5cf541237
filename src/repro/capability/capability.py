"""The CHERIoT capability value and its guarded manipulation.

A :class:`Capability` is an immutable architectural value: a 32-bit
address, compressed bounds (E/B/T), a representable permission set, a
3-bit otype, the out-of-band validity tag, and the reserved bit (paper
Figure 1).  Every mutator returns a *new* capability and respects the
guarded-manipulation rules of section 2.4:

* bounds may be narrowed, never widened nor displaced;
* permissions may be shed, never regained;
* the tag may be cleared, never set.

Operations that would break monotonicity raise
:class:`~repro.capability.errors.MonotonicityFault` (as ``csetbounds``
does architecturally) or silently clear the tag where the architecture
specifies invalidation (address moves outside the representable region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from . import bounds as bounds_mod
from . import compression
from . import otypes as otypes_mod
from .bounds import BoundsError, EncodedBounds
from .errors import (
    BoundsFault,
    MonotonicityFault,
    OTypeFault,
    PermissionFault,
    SealedFault,
    TagFault,
)
from .permissions import NO_PERMS, Permission, PermSet

_ADDR_MASK = (1 << bounds_mod.ADDRESS_BITS) - 1
_UNSEALED = otypes_mod.OTYPE_UNSEALED

#: Size in bytes of a capability in memory (32-bit address + metadata).
CAP_SIZE_BYTES = 8


@lru_cache(maxsize=4096)
def _perm_mask(perms: PermSet) -> int:
    """Combined ``Permission.value`` bitmask of a permission set.

    ``Permission`` is an ``enum.Flag``, so each member carries a distinct
    bit; the mask supports the executor's branch-free permission checks.
    """
    mask = 0
    for perm in perms:
        mask |= perm.value
    return mask


@dataclass(frozen=True, slots=True)
class Capability:
    """An architectural CHERIoT capability.

    Instances are immutable; use the guarded-manipulation methods
    (:meth:`set_address`, :meth:`set_bounds`, :meth:`and_perms`,
    :meth:`seal`, ...) to derive new capabilities.
    """

    address: int
    bounds: EncodedBounds
    perms: PermSet = NO_PERMS
    otype: int = otypes_mod.OTYPE_UNSEALED
    tag: bool = False
    reserved: bool = False
    #: Lazily-computed decoded ``(base, top)`` cache.  Bounds decoding is
    #: deterministic in (address, bounds), so the cache never needs
    #: invalidation on an immutable value.
    _dec: Optional[Tuple[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily-computed permission bitmask cache (same reasoning: the
    #: perms frozenset is immutable, so hashing it into the shared
    #: ``_perm_mask`` LRU on every ``allows()`` is pure overhead).
    _pbits: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0 <= self.address <= _ADDR_MASK:
            raise ValueError(f"address out of range: {self.address:#x}")
        if not otypes_mod.is_valid_otype(self.otype):
            raise OTypeFault(f"otype out of range: {self.otype}")
        if compression.normalize(self.perms) != self.perms:
            raise ValueError(f"permission set not representable: {self.perms}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def null(address: int = 0) -> "Capability":
        """The NULL capability: untagged, no permissions, zero bounds.

        This sits on the simulator's hottest path — every integer
        register write materializes one — so small addresses come from a
        prebuilt table of shared instances (safe: capabilities are
        immutable and compared by value) and the rest skip
        ``__post_init__``, whose checks are vacuous for NULL-derived
        values (masked address, unsealed otype, empty permission set).
        """
        if 0 <= address < _SMALL_NULL_COUNT:
            return _SMALL_NULLS[address]
        return _make(
            address & _ADDR_MASK, _NULL_BOUNDS, NO_PERMS, _UNSEALED, False,
            False, None, None,
        )

    @staticmethod
    def from_bounds(
        base: int,
        length: int,
        perms: Iterable[Permission],
        address: Optional[int] = None,
        exact: bool = False,
        tag: bool = True,
    ) -> "Capability":
        """Forge a tagged capability over ``[base, base+length)``.

        This is *not* an architectural operation — only the three reset
        roots (:mod:`repro.capability.roots`) and tests should forge;
        everything else must derive from a root.  Bounds follow the
        ``csetbounds`` rounding rules of :func:`repro.capability.bounds.encode`.
        """
        normalized = compression.normalize(frozenset(perms))
        encoded, actual_base, _ = bounds_mod.encode(base, length, exact=exact)
        addr = base if address is None else address
        cap = Capability(
            address=addr & _ADDR_MASK,
            bounds=encoded,
            perms=normalized,
            tag=tag,
        )
        if cap.tag and not bounds_mod.is_representable(
            cap.address, encoded, actual_base, cap.top
        ):
            raise BoundsError(
                f"address {addr:#x} not representable within [{base:#x}, +{length:#x})"
            )
        return cap

    # ------------------------------------------------------------------
    # Decoded views
    # ------------------------------------------------------------------

    @property
    def _decoded_bounds(self) -> Tuple[int, int]:
        """Decoded ``(base, top)``, cached in a slot on first use."""
        dec = self._dec
        if dec is None:
            dec = bounds_mod.decode(self.address, self.bounds)
            _set_dec(self, dec)
        return dec

    @property
    def base(self) -> int:
        """Decoded inclusive lower bound."""
        return (self._dec or self._decoded_bounds)[0]

    @property
    def top(self) -> int:
        """Decoded exclusive upper bound (may be ``2**32``)."""
        return (self._dec or self._decoded_bounds)[1]

    @property
    def perm_bits(self) -> int:
        """Permission set as a combined ``Permission.value`` bitmask."""
        pbits = self._pbits
        if pbits is None:
            pbits = _perm_mask(self.perms)
            _set_pbits(self, pbits)
        return pbits

    @property
    def length(self) -> int:
        """``top - base`` (zero when the encoding is degenerate)."""
        return max(0, self.top - self.base)

    @property
    def is_sealed(self) -> bool:
        """True when the otype is non-zero (includes sentries)."""
        return self.otype != otypes_mod.OTYPE_UNSEALED

    @property
    def is_sentry(self) -> bool:
        """True for sealed-entry capabilities (executable namespace)."""
        return otypes_mod.is_sentry(self.otype, Permission.EX in self.perms)

    @property
    def is_global(self) -> bool:
        """Global capabilities may be stored anywhere; locals need SL."""
        return Permission.GL in self.perms

    @property
    def is_local(self) -> bool:
        return not self.is_global

    @property
    def is_executable(self) -> bool:
        return Permission.EX in self.perms

    def has(self, *perms: Permission) -> bool:
        """True when every listed permission is held."""
        return all(p in self.perms for p in perms)

    def in_bounds(self, address: Optional[int] = None, size: int = 1) -> bool:
        """True when ``[address, address+size)`` lies within bounds."""
        addr = self.address if address is None else address
        base, top = self._dec or self._decoded_bounds
        return base <= addr and addr + size <= top

    # ------------------------------------------------------------------
    # Guarded manipulation (all monotone)
    # ------------------------------------------------------------------

    def untagged(self) -> "Capability":
        """Copy with the validity tag cleared."""
        if not self.tag:
            return self
        # The decode depends only on (address, bounds), both unchanged.
        return _make(
            self.address, self.bounds, self.perms, self.otype, False,
            self.reserved, self._dec, self._pbits,
        )

    def set_address(self, address: int) -> "Capability":
        """``csetaddr``: move the address, untagging on unrepresentability.

        Changing the address of a *sealed* capability also clears the tag
        (sealed capabilities are immutable).  An address move that would
        change the decoded bounds clears the tag (section 3.2.3).
        """
        address &= _ADDR_MASK
        if self.tag and self.otype == _UNSEALED:
            # Representable means the new address decodes to the same
            # bounds (``bounds.is_representable``; the address is already
            # in range).  A verified move keeps the decoded bounds, so
            # seed the cache and the derived capability never re-decodes.
            dec = self._dec or self._decoded_bounds
            if bounds_mod.decode(address, self.bounds) == dec:
                return _make(
                    address, self.bounds, self.perms, _UNSEALED, True,
                    self.reserved, dec, self._pbits,
                )
        # Unverified moves may decode differently.
        return _make(
            address, self.bounds, self.perms, self.otype, False,
            self.reserved, None, self._pbits,
        )

    def inc_address(self, delta: int) -> "Capability":
        """``cincaddr``: pointer arithmetic with representability check."""
        return self.set_address((self.address + delta) & _ADDR_MASK)

    def set_bounds(self, length: int, exact: bool = False) -> "Capability":
        """``csetbounds``: narrow bounds to ``[address, address+length)``.

        Raises :class:`MonotonicityFault` when the (rounded) requested
        region is not contained in the current bounds,
        :class:`BoundsFault` when the request is not encodable at all
        (negative length, top past the address space), and the usual
        faults for untagged / sealed sources.
        """
        if not self.tag:
            raise TagFault("operation on untagged capability")
        if self.otype != _UNSEALED:
            raise SealedFault("operation on sealed capability")
        try:
            encoded, new_base, new_top = bounds_mod.encode(
                self.address, length, exact
            )
        except BoundsError as err:
            # Surface unencodable requests as the architectural fault so
            # a csetbounds from guest code traps instead of escaping the
            # simulator as a raw ValueError.
            raise BoundsFault(str(err)) from err
        base, top = self._dec or self._decoded_bounds
        if new_base < base or new_top > top:
            raise MonotonicityFault(
                f"setbounds [{new_base:#x}, {new_top:#x}) exceeds "
                f"[{base:#x}, {top:#x})"
            )
        # The encoder rounds the base down from this same address, so
        # the address's mantissa bits equal B and the decode of
        # (address, encoded) is exactly (new_base, new_top): seed it.
        return _make(
            self.address, encoded, self.perms, _UNSEALED, True, self.reserved,
            (new_base, new_top), self._pbits,
        )

    def and_perms(self, mask: Iterable[Permission]) -> "Capability":
        """``candperm``: intersect permissions (then re-normalize)."""
        self._require_unsealed_tagged()
        # Address and bounds are unchanged, so the decode carries over.
        return _make(
            self.address, self.bounds,
            compression.and_perms(self.perms, frozenset(mask)), _UNSEALED,
            True, self.reserved, self._dec, None,
        )

    def clear_perms(self, *perms: Permission) -> "Capability":
        """Convenience: shed the listed permissions."""
        keep = frozenset(self.perms) - frozenset(perms)
        return self.and_perms(keep)

    def make_local(self) -> "Capability":
        """Shed GL: the result may only be stored via SL authorities."""
        return self.clear_perms(Permission.GL)

    def readonly(self) -> "Capability":
        """Shed write authority, deeply: clears SD, SL and LM.

        Clearing LM makes the read-only view *transitive* — capabilities
        loaded through it lose SD/LM too (section 3.1.1).
        """
        return self.clear_perms(Permission.SD, Permission.SL, Permission.LM)

    def seal(self, authority: "Capability") -> "Capability":
        """``cseal``: seal with the otype named by ``authority.address``.

        ``authority`` must be tagged, unsealed, hold SE, and its address
        must be an in-bounds otype valid for this capability's namespace
        (executable or data, selected by EX — section 3.2.2).
        """
        self._require_unsealed_tagged()
        _check_seal_authority(authority, Permission.SE)
        otype = authority.address
        _check_otype_for(self, otype)
        return _make(
            self.address, self.bounds, self.perms, otype, True, self.reserved,
            self._dec, self._pbits,
        )

    def seal_sentry(self, sentry_type: otypes_mod.SentryType) -> "Capability":
        """Seal an executable capability as a sentry (section 3.1.2).

        Creating sentries needs no sealing authority: the RTOS loader and
        jump-and-link hardware mint them; they are the mechanism by which
        interrupt posture is delegated.
        """
        self._require_unsealed_tagged()
        if not self.is_executable:
            raise PermissionFault("sentries must be executable")
        otype = int(sentry_type)
        _check_otype_for(self, otype)
        return _make(
            self.address, self.bounds, self.perms, otype, True, self.reserved,
            self._dec, self._pbits,
        )

    def unseal(self, authority: "Capability") -> "Capability":
        """``cunseal``: remove the seal using a US authority."""
        if not self.tag:
            raise TagFault("unseal of untagged capability")
        otype = self.otype
        if otype == _UNSEALED:
            raise OTypeFault("capability is not sealed")
        _check_seal_authority(authority, Permission.US)
        if authority.address != otype:
            raise OTypeFault(
                f"unseal otype mismatch: authority names {authority.address}, "
                f"capability sealed with {otype}"
            )
        return _make(
            self.address, self.bounds, self.perms, _UNSEALED, True,
            self.reserved, self._dec, self._pbits,
        )

    def unseal_for_jump(self) -> "Capability":
        """Automatic unsealing applied when a sentry is jumped to."""
        if not self.is_sentry:
            raise OTypeFault("not a sentry")
        return _make(
            self.address, self.bounds, self.perms, _UNSEALED, self.tag,
            self.reserved, self._dec, self._pbits,
        )

    # ------------------------------------------------------------------
    # Dereference checks (used by the memory system and ISA)
    # ------------------------------------------------------------------

    def allows(self, address: int, size: int, need_bits: int) -> bool:
        """Exception-free fast path of :meth:`check_access`.

        ``need_bits`` is a pre-combined ``Permission.value`` mask.  Returns
        True when the access is authorized; on False the caller should run
        :meth:`check_access` to raise the architecturally-ordered fault.
        """
        if not self.tag or self.otype != otypes_mod.OTYPE_UNSEALED:
            return False
        pbits = self._pbits
        if pbits is None:
            pbits = _perm_mask(self.perms)
            _set_pbits(self, pbits)
        if need_bits & ~pbits:
            return False
        dec = self._dec
        if dec is None:
            dec = bounds_mod.decode(self.address, self.bounds)
            _set_dec(self, dec)
        return dec[0] <= address and address + size <= dec[1]

    def check_access(
        self, address: int, size: int, required: Iterable[Permission]
    ) -> None:
        """Authorize an access or raise the appropriate fault.

        Checks, in hardware order: tag, seal, permissions, then bounds.
        Each required permission is one ``Permission`` member; its bit is
        tested against :attr:`perm_bits` (``_value_`` is the member's
        value without the ``value`` property's Python-level lookup).
        """
        if not self.tag:
            raise TagFault(f"access via untagged capability at {address:#x}")
        if self.otype != _UNSEALED:
            raise SealedFault(f"access via sealed capability at {address:#x}")
        pbits = self._pbits
        if pbits is None:
            pbits = self.perm_bits
        for perm in required:
            if not pbits & perm._value_:
                raise PermissionFault(
                    f"access at {address:#x} requires {perm}, held: "
                    f"{sorted(p.name for p in self.perms)}"
                )
        base, top = self._dec or self._decoded_bounds
        if not (base <= address and address + size <= top):
            raise BoundsFault(
                f"access [{address:#x}, +{size}) outside [{base:#x}, {top:#x})"
            )

    def _require_unsealed_tagged(self) -> None:
        if not self.tag:
            raise TagFault("operation on untagged capability")
        if self.is_sealed:
            raise SealedFault("operation on sealed capability")

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        perms = "".join(sorted(p.name for p in self.perms)) or "-"
        seal = f" otype={self.otype}" if self.is_sealed else ""
        tag = "v" if self.tag else "!"
        return (
            f"<Cap {tag} {self.address:#010x} [{self.base:#x},{self.top:#x})"
            f" {perms}{seal}>"
        )


#: Shared bounds/value for NULL-derived (integer) capabilities.  NULL
#: capabilities are immutable and compare by value, so interning the
#: all-zero instance is safe and removes a construction from every
#: integer register write.
_NULL_BOUNDS = EncodedBounds(0, 0, 0)
_NULL_CAP = Capability(address=0, bounds=_NULL_BOUNDS, perms=NO_PERMS, tag=False)


#: The ``__set__`` of each slot descriptor, bound once.  Writing a slot
#: through its descriptor skips the frozen class's ``__setattr__`` (which
#: would raise) and the per-call attribute lookup that
#: ``object.__setattr__(cap, name, value)`` repeats for every field.
_new = object.__new__
(
    _set_address, _set_bounds, _set_perms, _set_otype, _set_tag,
    _set_reserved, _set_dec, _set_pbits,
) = (
    Capability.__dict__[name].__set__
    for name in (
        "address", "bounds", "perms", "otype", "tag", "reserved", "_dec",
        "_pbits",
    )
)


def _make(
    address: int,
    bounds: EncodedBounds,
    perms: PermSet,
    otype: int,
    tag: bool,
    reserved: bool,
    dec: Optional[Tuple[int, int]],
    pbits: Optional[int],
) -> Capability:
    """Build a capability without running ``__post_init__``.

    The one non-validating constructor: every guarded manipulation
    derives its result here.  Callers pass only fields that are already
    valid — copied from a validated source, or produced by a validating
    helper (``bounds.encode``, ``compression.normalize``,
    ``_check_otype_for``) — so ``__post_init__`` would have nothing left
    to check; ``dataclasses.replace`` would re-run it, re-normalizing
    (and re-hashing) the permission frozenset on every derivation.

    ``dec`` seeds the decoded-bounds cache and ``pbits`` the permission
    bitmask cache; each must equal what the lazy property would compute
    (``bounds.decode(address, bounds)`` and ``_perm_mask(perms)``), or be
    ``None`` to compute on first use.
    """
    cap = _new(Capability)
    _set_address(cap, address)
    _set_bounds(cap, bounds)
    _set_perms(cap, perms)
    _set_otype(cap, otype)
    _set_tag(cap, tag)
    _set_reserved(cap, reserved)
    _set_dec(cap, dec)
    _set_pbits(cap, pbits)
    return cap


#: Interning table for small NULL-derived integers (loop counters,
#: flags, comparison constants dominate integer register traffic).
_SMALL_NULL_COUNT = 2048
_SMALL_NULLS = tuple(
    _make(a, _NULL_BOUNDS, NO_PERMS, _UNSEALED, False, False, None, None)
    for a in range(_SMALL_NULL_COUNT)
)


def _check_seal_authority(authority: Capability, needed: Permission) -> None:
    if not authority.tag:
        raise TagFault("sealing authority is untagged")
    if authority.otype != _UNSEALED:
        raise SealedFault("sealing authority is itself sealed")
    pbits = authority._pbits
    if pbits is None:
        pbits = authority.perm_bits
    if not pbits & needed._value_:
        raise PermissionFault(f"sealing authority lacks {needed}")
    otype = authority.address
    base, top = authority._dec or authority._decoded_bounds
    if not (base <= otype and otype + 1 <= top):
        raise BoundsFault(f"otype {otype} outside sealing authority bounds")


def _check_otype_for(target: Capability, otype: int) -> None:
    if not otypes_mod.is_valid_otype(otype) or otype == otypes_mod.OTYPE_UNSEALED:
        raise OTypeFault(f"invalid otype for sealing: {otype}")


def attenuate_loaded(loaded: Capability, authority: Capability) -> Capability:
    """Apply the recursive load attenuations (paper section 3.1.1).

    When a tagged capability is loaded through ``authority``:

    * without ``LG`` on the authority, the loaded capability has GL and
      LG cleared (it becomes local and propagates locality);
    * without ``LM`` on the authority, the loaded capability has LM and
      its store permissions cleared (deep immutability) — this applies to
      data capabilities; sealed and executable capabilities keep their
      permissions so sentries still work.

    Untagged values pass through unchanged (they are just bits).
    """
    if not loaded.tag:
        return loaded
    aperms = authority.perms
    if Permission.LG in aperms and Permission.LM in aperms:
        # Full-authority loads (the common case: stack and globals run
        # with LG+LM) attenuate nothing — skip the set algebra.
        return loaded
    perms = frozenset(loaded.perms)
    if Permission.LG not in authority.perms:
        perms = perms - {Permission.GL, Permission.LG}
    if Permission.LM not in authority.perms and not loaded.is_executable:
        perms = perms - {Permission.LM, Permission.SD, Permission.SL}
    if perms == loaded.perms:
        return loaded
    # Address and bounds are unchanged, so the decode carries over.
    return _make(
        loaded.address, loaded.bounds, compression.normalize(perms),
        loaded.otype, True, loaded.reserved, loaded._dec, None,
    )

"""6-bit compressed permission encoding (paper Figure 2, section 3.2.1).

CHERIoT compresses the twelve architectural permissions of Table 1 into
six bits by exploiting their interdependence.  There are six *formats*;
each grants some permissions implicitly and encodes the optional ones
that make sense given the implied permissions:

===============  ==================  ==========================
Format           Bit layout [5..0]   Implied permissions
===============  ==================  ==========================
``mem-cap-rw``   GL 1 1 SL LM LG     LD, MC, SD
``mem-cap-ro``   GL 1 0 1 LM LG      LD, MC
``mem-cap-wo``   GL 1 0 0 0 0        SD, MC
``mem-no-cap``   GL 1 0 0 LD SD      (none)
``executable``   GL 0 1 SR LM LG     EX, LD, MC
``sealing``      GL 0 0 U0 SE US     (none)
===============  ==================  ==========================

The formats deliberately make some combinations unrepresentable:

* A capability may never hold both ``EX`` and ``SD`` — W^X is a hardware
  guarantee (section 3.1.1).
* Sealing authority never coexists with memory access authority.
* ``MC`` requires at least one of ``LD``/``SD``.

:func:`normalize` maps an arbitrary permission set onto the largest
representable subset, mirroring what ``candperm`` does in hardware: the
result is always a (non-strict) subset of the input, so permission
manipulation remains monotone even through compression.
"""

from __future__ import annotations

from functools import lru_cache

from .permissions import Permission as P
from .permissions import PermSet

_GL_BIT = 1 << 5

#: Format discriminators for the low five bits (after the GL bit).
FORMAT_MEM_CAP_RW = "mem-cap-rw"
FORMAT_MEM_CAP_RO = "mem-cap-ro"
FORMAT_MEM_CAP_WO = "mem-cap-wo"
FORMAT_MEM_NO_CAP = "mem-no-cap"
FORMAT_EXECUTABLE = "executable"
FORMAT_SEALING = "sealing"

ALL_FORMATS = (
    FORMAT_MEM_CAP_RW,
    FORMAT_MEM_CAP_RO,
    FORMAT_MEM_CAP_WO,
    FORMAT_MEM_NO_CAP,
    FORMAT_EXECUTABLE,
    FORMAT_SEALING,
)


def classify(perms: PermSet) -> str:
    """Return the name of the format a *representable* set belongs to.

    The set must already be representable (i.e. ``normalize(perms) ==
    perms``); otherwise :class:`ValueError` is raised.
    """
    if normalize(perms) != frozenset(perms):
        raise ValueError(f"permission set not representable: {perms}")
    held = frozenset(perms)
    if P.EX in held:
        return FORMAT_EXECUTABLE
    if P.MC in held:
        if P.LD in held and P.SD in held:
            return FORMAT_MEM_CAP_RW
        if P.LD in held:
            return FORMAT_MEM_CAP_RO
        return FORMAT_MEM_CAP_WO
    if P.LD in held or P.SD in held:
        return FORMAT_MEM_NO_CAP
    return FORMAT_SEALING


def normalize(perms: PermSet) -> PermSet:
    """Largest representable subset of ``perms`` (monotone, idempotent).

    The cascade mirrors the hardware's behaviour when a ``candperm``
    result does not correspond exactly to one of the six formats:

    1. Executable format applies when EX, LD and MC are all present and
       SD is absent (W^X); optional bits GL, SR, LM, LG survive.
    2. Otherwise memory formats apply when MC plus LD and/or SD are
       present; sealing bits are shed.
    3. Otherwise plain data access (LD/SD without MC).
    4. Otherwise sealing authority (SE/US/U0), shed if any memory
       permission lingers.
    5. GL survives in every format.
    """
    return _normalize_cached(frozenset(perms))


# There are only 2**12 possible input sets, so the cache converges to a
# total memo; normalize() sits on the per-instruction capability hot
# path (every Capability construction validates through it).
@lru_cache(maxsize=4096)
def _normalize_cached(held: PermSet) -> PermSet:
    gl = held & {P.GL}
    if P.EX in held and P.LD in held and P.MC in held and P.SD not in held:
        return frozenset({P.EX, P.LD, P.MC}) | gl | (held & {P.SR, P.LM, P.LG})
    if P.MC in held and P.LD in held and P.SD in held:
        return frozenset({P.LD, P.SD, P.MC}) | gl | (held & {P.SL, P.LM, P.LG})
    if P.MC in held and P.LD in held:
        return frozenset({P.LD, P.MC}) | gl | (held & {P.LM, P.LG})
    if P.MC in held and P.SD in held:
        return frozenset({P.SD, P.MC}) | gl
    if P.LD in held or P.SD in held:
        return gl | (held & {P.LD, P.SD})
    return gl | (held & {P.U0, P.SE, P.US})


def compress(perms: PermSet) -> int:
    """Encode a *representable* permission set into its 6-bit form.

    Raises :class:`ValueError` when the set is not exactly representable;
    callers wanting hardware semantics should ``compress(normalize(p))``.
    """
    return _compress_cached(frozenset(perms))


# A pure function of at most 2**12 sets, met on every capability store.
# ``lru_cache`` keeps only results, so a set that is not representable
# raises every time.
@lru_cache(maxsize=None)
def _compress_cached(held: PermSet) -> int:
    fmt = classify(held)
    word = _GL_BIT if P.GL in held else 0
    if fmt == FORMAT_MEM_CAP_RW:
        word |= 0b11000
        word |= (0b100 if P.SL in held else 0)
        word |= (0b010 if P.LM in held else 0)
        word |= (0b001 if P.LG in held else 0)
    elif fmt == FORMAT_MEM_CAP_RO:
        word |= 0b10100
        word |= (0b010 if P.LM in held else 0)
        word |= (0b001 if P.LG in held else 0)
    elif fmt == FORMAT_MEM_CAP_WO:
        word |= 0b10000
    elif fmt == FORMAT_MEM_NO_CAP:
        word |= 0b10000
        word |= (0b010 if P.LD in held else 0)
        word |= (0b001 if P.SD in held else 0)
    elif fmt == FORMAT_EXECUTABLE:
        word |= 0b01000
        word |= (0b100 if P.SR in held else 0)
        word |= (0b010 if P.LM in held else 0)
        word |= (0b001 if P.LG in held else 0)
    else:  # sealing
        word |= (0b100 if P.U0 in held else 0)
        word |= (0b010 if P.SE in held else 0)
        word |= (0b001 if P.US in held else 0)
    return word


def decompress(word: int) -> PermSet:
    """Decode a 6-bit compressed permission word into a permission set."""
    if word < 0 or word > 0x3F:
        raise ValueError(f"compressed permission word out of range: {word:#x}")
    held = set()
    if word & _GL_BIT:
        held.add(P.GL)
    low = word & 0x1F
    if low & 0b11000 == 0b11000:  # mem-cap-rw
        held |= {P.LD, P.MC, P.SD}
        if low & 0b100:
            held.add(P.SL)
        if low & 0b010:
            held.add(P.LM)
        if low & 0b001:
            held.add(P.LG)
    elif low & 0b11100 == 0b10100:  # mem-cap-ro
        held |= {P.LD, P.MC}
        if low & 0b010:
            held.add(P.LM)
        if low & 0b001:
            held.add(P.LG)
    elif low == 0b10000:  # mem-cap-wo
        held |= {P.SD, P.MC}
    elif low & 0b11100 == 0b10000:  # mem-no-cap (LD/SD not both clear here)
        if low & 0b010:
            held.add(P.LD)
        if low & 0b001:
            held.add(P.SD)
    elif low & 0b11000 == 0b01000:  # executable
        held |= {P.EX, P.LD, P.MC}
        if low & 0b100:
            held.add(P.SR)
        if low & 0b010:
            held.add(P.LM)
        if low & 0b001:
            held.add(P.LG)
    else:  # sealing (bits 4:3 == 00)
        if low & 0b100:
            held.add(P.U0)
        if low & 0b010:
            held.add(P.SE)
        if low & 0b001:
            held.add(P.US)
    return frozenset(held)


def and_perms(perms: PermSet, mask: PermSet) -> PermSet:
    """The hardware ``candperm`` semantics: intersect then re-normalize.

    The result is always representable and a subset of ``perms``.
    """
    return normalize(frozenset(perms) & frozenset(mask))

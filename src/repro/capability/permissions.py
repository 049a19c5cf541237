"""Architectural capability permissions (paper Table 1).

CHERIoT defines twelve architectural permissions.  Each permission is a
single bit in the *architectural view* of a capability's permission set;
the stored representation is the 6-bit compressed encoding implemented in
:mod:`repro.capability.compression`.

The paper (section 3.2.1) notes that the architectural view orders the
permissions so that the ones most commonly cleared (GL, LG, LM and SD)
occupy the lowest bits, allowing single-instruction mask construction on
RV32E.  :data:`ARCHITECTURAL_ORDER` preserves that ordering.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Iterable


class Permission(enum.Flag):
    """One architectural permission bit (paper Table 1).

    ============ =====================  =========================================
    Name         Applied to             Permits
    ============ =====================  =========================================
    ``GL``       the capability value   storing via non-SL authorities ("global")
    ``LD``       load address           data loads (and capability loads if MC)
    ``SD``       store address          data stores (and capability stores if MC)
    ``MC``       load/store address     capability-width loads / stores
    ``SL``       store address          stores of non-global (local) capabilities
    ``LG``       load address           loaded capabilities keep GL and LG
    ``LM``       load address           loaded capabilities keep SD and LM
    ``EX``       jump targets           instruction fetch
    ``SR``       program counter        access to special registers / CSRs
    ``SE``       ``cseal`` authority    sealing with the cited otype
    ``US``       ``cunseal`` authority  unsealing with the cited otype
    ``U0``       (software defined)     no architectural meaning
    ============ =====================  =========================================
    """

    GL = enum.auto()
    LG = enum.auto()
    LM = enum.auto()
    SD = enum.auto()
    LD = enum.auto()
    MC = enum.auto()
    SL = enum.auto()
    EX = enum.auto()
    SR = enum.auto()
    SE = enum.auto()
    US = enum.auto()
    U0 = enum.auto()

    #: Members are singletons and compare by identity, so the identity
    #: hash agrees with equality; it runs in C, where ``Enum.__hash__``
    #: hashes the member's name in Python on every ``P.X in perms``.
    __hash__ = object.__hash__


#: Architectural bit order, least-significant first.  GL, LG, LM and SD sit
#: in the low bits so a single compressed-immediate AND can clear them
#: (paper section 3.2.1).
ARCHITECTURAL_ORDER = (
    Permission.GL,
    Permission.LG,
    Permission.LM,
    Permission.SD,
    Permission.LD,
    Permission.MC,
    Permission.SL,
    Permission.EX,
    Permission.SR,
    Permission.SE,
    Permission.US,
    Permission.U0,
)

PermSet = FrozenSet[Permission]

#: The empty permission set.
NO_PERMS: PermSet = frozenset()

#: Permissions concerned with memory access (as opposed to sealing).
MEMORY_PERMS: PermSet = frozenset(
    {Permission.LD, Permission.SD, Permission.MC, Permission.EX}
)

#: Permissions concerned with the sealing namespace.
SEALING_PERMS: PermSet = frozenset(
    {Permission.SE, Permission.US, Permission.U0}
)


def perm_set(*perms: Permission) -> PermSet:
    """Build a frozen permission set from individual permissions."""
    return frozenset(perms)


def to_architectural_word(perms: Iterable[Permission]) -> int:
    """Pack a permission set into the 12-bit architectural view.

    Bit *i* of the result corresponds to ``ARCHITECTURAL_ORDER[i]``.
    """
    held = frozenset(perms)
    word = 0
    for bit, perm in enumerate(ARCHITECTURAL_ORDER):
        if perm in held:
            word |= 1 << bit
    return word


def from_architectural_word(word: int) -> PermSet:
    """Unpack a 12-bit architectural permission word into a set.

    Raises :class:`ValueError` if bits above the 12 defined ones are set.
    """
    if word < 0 or word >= (1 << len(ARCHITECTURAL_ORDER)):
        raise ValueError(f"architectural permission word out of range: {word:#x}")
    return frozenset(
        perm for bit, perm in enumerate(ARCHITECTURAL_ORDER) if word & (1 << bit)
    )

"""The merged integer/capability register file (RV32E: 16 registers).

CHERIoT extends each of the 16 RV32E registers to hold a full
capability.  Architecturally an integer is an untagged capability whose
address field is the value — the merged-register-file model of the
CHERI ISA — and :meth:`RegisterFile.read` returns exactly that.  ``c0``
reads as the NULL capability and ignores writes.

Only the host representation differs from the architecture: a register
written as an integer keeps its value alone, and the NULL-derived
capability it stands for is built when something reads the register as
a capability.  ``ints[i]`` always holds register ``i``'s 32-bit value
(its address); ``caps[i]`` holds its capability, or ``None`` for a
NULL-derived integer.  The executor's bound steps
(:mod:`repro.isa.executor`) close over the two lists, so they are
created once and never replaced.

Special capability registers (SCRs) — ``pcc``, ``mtcc``, ``mtdc``,
``mscratchc``, ``mepcc`` — live here too; access to them requires the SR
permission on the PCC, which the executor enforces.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.capability import Capability

#: Number of general-purpose registers in RV32E.
NUM_REGS = 16

#: The slot after the last register: bound steps send their writes to
#: ``x0`` here (see :meth:`RegisterFile.dest`), so ``ints[0]`` stays 0
#: and ``caps[0]`` stays ``None`` without a per-write test.
SINK = NUM_REGS

_null = Capability.null

#: ABI register names, indexed by register number.
ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
)

#: Special capability registers accessed via ``cspecialrw``.
SCR_NAMES = ("mtcc", "mtdc", "mscratchc", "mepcc")


def _build_name_table() -> Dict[str, int]:
    names: Dict[str, int] = {}
    for idx, abi in enumerate(ABI_NAMES):
        names[abi] = idx
        names[f"x{idx}"] = idx
        names[f"c{idx}"] = idx
        names[f"c{abi}"] = idx  # cra, csp, ca0 ... CHERIoT asm style
    names["fp"] = 8
    names["cfp"] = 8
    return names


#: Register-name → index lookup accepting x/c/ABI spellings.
REGISTER_NAMES: Dict[str, int] = _build_name_table()


def register_index(name: str) -> int:
    """Resolve a register name (``x5``, ``c5``, ``t0``, ``ct0``) to its index."""
    try:
        return REGISTER_NAMES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown register name: {name!r}") from None


def _check(index) -> None:
    """Reject anything but a register index, as every access does."""
    if not 0 <= index < NUM_REGS:
        raise ValueError(f"register index out of range: {index}")


class RegisterFile:
    """16 capability-width registers plus the SCRs."""

    __slots__ = ("ints", "caps", "_scrs")

    def __init__(self) -> None:
        #: Register values, plus the :data:`SINK` slot.
        self.ints: List[int] = [0] * (NUM_REGS + 1)
        #: Register capabilities (``None``: the NULL-derived integer
        #: ``ints[i]``), plus the :data:`SINK` slot.  A capability is
        #: always truthy, so ``caps[i] or null(ints[i])`` reads
        #: register ``i`` as a capability.
        self.caps: List[Optional[Capability]] = [None] * (NUM_REGS + 1)
        self._scrs: Dict[str, Capability] = {n: Capability.null() for n in SCR_NAMES}

    @staticmethod
    def dest(index: int) -> int:
        """The slot a bound step writes for destination register ``index``."""
        return index or SINK

    def read(self, index: int) -> Capability:
        _check(index)
        return self.caps[index] or _null(self.ints[index])

    def write(self, index: int, value: Capability) -> None:
        _check(index)
        if index:  # writes to the zero register are discarded
            self.ints[index] = value.address
            self.caps[index] = value

    def read_int(self, index: int) -> int:
        """Read a register as a 32-bit unsigned integer (its address)."""
        _check(index)
        return self.ints[index]

    def write_int(self, index: int, value: int) -> None:
        """Write an integer: an untagged NULL-derived capability."""
        _check(index)
        if index:
            self.ints[index] = value & 0xFFFFFFFF
            self.caps[index] = None

    def read_scr(self, name: str) -> Capability:
        return self._scrs[name]

    def write_scr(self, name: str, value: Capability) -> None:
        if name not in self._scrs:
            raise ValueError(f"unknown SCR: {name}")
        self._scrs[name] = value

    def snapshot(self) -> List[Capability]:
        """The 16 registers as capabilities (used by the context switcher)."""
        return [self.read(i) for i in range(NUM_REGS)]


class _CheckedSlots:
    """One of the two lists, accessed through the public methods' checks."""

    __slots__ = ("_items",)

    def __init__(self, items: list) -> None:
        self._items = items

    def __getitem__(self, index):
        _check(index)
        return self._items[index]

    def __setitem__(self, index, value) -> None:
        _check(index)
        if index:
            self._items[index] = value


class CheckedRegisters:
    """The register file as a bound step of a malformed instruction sees it.

    A binder resolves well-formed register operands once and indexes the
    lists directly.  An operand it cannot trust (out of range, not an
    integer) is instead checked when the step touches it, with the error
    :meth:`RegisterFile.read_int` or :meth:`RegisterFile.write` would
    raise at that moment, and writes to ``x0`` are dropped the same way.
    """

    __slots__ = ("ints", "caps")

    def __init__(self, regs: RegisterFile) -> None:
        self.ints = _CheckedSlots(regs.ints)
        self.caps = _CheckedSlots(regs.caps)

    @staticmethod
    def dest(index):
        return index

"""The SoC interconnect: address decode over SRAM banks and MMIO devices.

Embedded CHERIoT systems use tightly-coupled SRAM, so the bus is a
simple single-cycle address decoder rather than a cached hierarchy —
deterministic latency is a design requirement (paper section 2.1).

The bus also implements the *store snoop* needed by the background
revoker: every store's address is broadcast to registered snoopers so
the revoker can detect races with its in-flight capability words
(section 3.3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Protocol, Tuple

from repro.capability import Capability
from .tagged_memory import MemoryError_, TaggedMemory


class MMIODevice(Protocol):
    """Word-addressed memory-mapped device."""

    def mmio_read(self, offset: int) -> int:  # pragma: no cover - protocol
        ...

    def mmio_write(self, offset: int, value: int) -> None:  # pragma: no cover
        ...


@dataclass(slots=True)
class BusStats:
    """Access counters, one per kind of bus access.

    No timing model reads them: they are observability, and only tests
    check them.
    """

    data_reads: int = 0
    data_writes: int = 0
    cap_reads: int = 0
    cap_writes: int = 0
    mmio_reads: int = 0
    mmio_writes: int = 0

    def reset(self) -> None:
        # Derived from the dataclass fields so new counters can never be
        # missed (the drift hazard of a hand-maintained list).
        for f in fields(self):
            setattr(self, f.name, 0)


class SystemBus:
    """Routes accesses to SRAM banks and MMIO devices; snoops stores."""

    def __init__(self) -> None:
        self._banks: List[TaggedMemory] = []
        self._devices: List[Tuple[int, int, MMIODevice]] = []
        #: Hull of all device regions (lo inclusive, hi exclusive).
        #: Devices cluster in a dedicated MMIO aperture well away from
        #: SRAM, so the hot word paths reject "not a device" with two
        #: comparisons instead of scanning the device list per access.
        self._dev_lo = 0
        self._dev_hi = 0
        self._store_snoopers: List[Callable[[int, int], None]] = []
        #: Most-recently-hit bank: accesses cluster heavily (code in one
        #: bank, a working set in another), so one contains() check
        #: usually replaces the decode scan.
        self._last_bank: Optional[TaggedMemory] = None
        self.stats = BusStats()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def attach_sram(self, bank: TaggedMemory) -> TaggedMemory:
        self._check_overlap(bank.base, bank.size)
        self._banks.append(bank)
        return bank

    def attach_device(self, base: int, size: int, device: MMIODevice) -> None:
        self._check_overlap(base, size)
        self._devices.append((base, size, device))
        if len(self._devices) == 1:
            self._dev_lo, self._dev_hi = base, base + size
        else:
            self._dev_lo = min(self._dev_lo, base)
            self._dev_hi = max(self._dev_hi, base + size)

    def _check_overlap(self, base: int, size: int) -> None:
        for bank in self._banks:
            if base < bank.base + bank.size and bank.base < base + size:
                raise ValueError(f"region [{base:#x},+{size:#x}) overlaps SRAM bank")
        for dbase, dsize, _ in self._devices:
            if base < dbase + dsize and dbase < base + size:
                raise ValueError(f"region [{base:#x},+{size:#x}) overlaps device")

    def bank_for(self, address: int, size: int = 1) -> TaggedMemory:
        bank = self._last_bank
        # Inlined contains(): this is every access's path, and the
        # most-recently-hit bank almost always matches.
        if (
            bank is not None
            and bank.base <= address
            and address + size <= bank.base + bank.size
        ):
            return bank
        for bank in self._banks:
            if bank.contains(address, size):
                self._last_bank = bank
                return bank
        raise MemoryError_(f"no SRAM at [{address:#x}, +{size})")

    def _device_for(self, address: int):
        for base, size, device in self._devices:
            if base <= address < base + size:
                return base, device
        return None

    def add_store_snooper(self, snooper: Callable[[int, int], None]) -> None:
        """Register ``snooper(address, size)`` called on every store."""
        self._store_snoopers.append(snooper)

    def remove_store_snooper(self, snooper: Callable[[int, int], None]) -> None:
        """Unregister ``snooper``; ``ValueError`` if it is not registered.

        A bound method equals every other binding of the same method to
        the same object, so the revoker can pass ``self._snoop_store``.
        """
        self._store_snoopers.remove(snooper)

    def _snoop_store(self, address: int, size: int) -> None:
        for snooper in self._store_snoopers:
            snooper(address, size)

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def read_word(self, address: int, size: int = 4) -> int:
        if self._dev_lo <= address < self._dev_hi:
            hit = self._device_for(address)
            if hit is not None:
                base, device = hit
                self.stats.mmio_reads += 1
                return device.mmio_read(address - base)
        self.stats.data_reads += 1
        # Every guest load comes through here: the last-bank decode is
        # inline, as in fill().
        bank = self._last_bank
        if (
            bank is None
            or address < bank.base
            or address + size > bank.base + bank.size
        ):
            bank = self.bank_for(address, size)
        return bank.read_word(address, size)

    def write_word(self, address: int, value: int, size: int = 4) -> None:
        if self._dev_lo <= address < self._dev_hi:
            hit = self._device_for(address)
            if hit is not None:
                base, device = hit
                self.stats.mmio_writes += 1
                device.mmio_write(address - base, value)
                return
        self.stats.data_writes += 1
        # Every guest store comes through here: the last-bank decode and
        # the snoop loop are inline, as in fill().
        bank = self._last_bank
        if (
            bank is None
            or address < bank.base
            or address + size > bank.base + bank.size
        ):
            bank = self.bank_for(address, size)
        bank.write_word(address, value, size)
        for snooper in self._store_snoopers:
            snooper(address, size)

    def read_bytes(self, address: int, size: int) -> bytes:
        self.stats.data_reads += 1
        return self.bank_for(address, size).read_bytes(address, size)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Data store; an empty one is decoded but not counted or snooped."""
        size = len(data)
        if not size:
            self.bank_for(address, 0)  # still faults outside every bank
            return
        self.stats.data_writes += 1
        self.bank_for(address, size).write_bytes(address, data)
        self._snoop_store(address, size)

    def fill(self, address: int, size: int, value: int = 0) -> None:
        """Region zeroing (stack clearing); snooped like a store.

        The stack and free-path zeroing run through here on every
        crossing, so the last-bank decode and the snoop loop are inline.
        An empty (non-positive) fill still faults outside every bank, but
        it is not counted or snooped.
        """
        if size <= 0:
            self.bank_for(address, size).fill(address, size, value)
            return
        self.stats.data_writes += 1
        bank = self._last_bank
        if (
            bank is None
            or address < bank.base
            or address + size > bank.base + bank.size
        ):
            bank = self.bank_for(address, size)
        bank.fill(address, size, value)
        for snooper in self._store_snoopers:
            snooper(address, size)

    # ------------------------------------------------------------------
    # Capability access
    # ------------------------------------------------------------------

    def read_capability(self, address: int) -> Capability:
        self.stats.cap_reads += 1
        return self.bank_for(address, 8).read_capability(address)

    def write_capability(self, address: int, cap: Capability) -> None:
        self.stats.cap_writes += 1
        self.bank_for(address, 8).write_capability(address, cap)
        self._snoop_store(address, 8)

    def clear_tag(self, address: int) -> None:
        """Single-write capability invalidation (the revoker's store)."""
        self.stats.data_writes += 1
        self.bank_for(address, 1).clear_tag(address)
        self._snoop_store(address, 8)

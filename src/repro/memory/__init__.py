"""Memory substrate: tagged SRAM, revocation bitmap, system bus, layout."""

from .bus import BusStats, MMIODevice, SystemBus
from .layout import MemoryMap, Region, default_memory_map
from .revocation_map import GRANULE_BYTES, SRAM_OVERHEAD, RevocationMap
from .tagged_memory import MemoryError_, TaggedMemory

__all__ = [
    "BusStats",
    "GRANULE_BYTES",
    "MMIODevice",
    "MemoryError_",
    "MemoryMap",
    "Region",
    "RevocationMap",
    "SRAM_OVERHEAD",
    "SystemBus",
    "TaggedMemory",
    "default_memory_map",
]

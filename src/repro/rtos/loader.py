"""The RTOS loader: static linking of compartments into a system image.

Compartments — possibly from mutually distrusting vendors — are linked
into a single image at build time (paper section 2.6).  The loader:

* carves each compartment's code and globals regions out of the SoC
  memory map and derives their capabilities from the boot roots,
* seals export-table entries with the RTOS export otype, minting the
  unforgeable import tokens that imports resolve to,
* carves thread stacks and builds their *local*, SL-bearing stack
  capabilities,
* grants the revocation bitmap and revoker MMIO capabilities **only**
  to the allocator compartment,
* and finally erases the roots, so no more authority can ever be
  conjured (early-boot discipline, section 3.1.1).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.capability import Capability, Permission, RootSet
from repro.capability.otypes import RTOS_DATA_OTYPES
from repro.memory.layout import MemoryMap, Region
from .compartment import Compartment, ImportToken
from .switcher import CompartmentSwitcher
from .thread import Thread


class LoaderError(Exception):
    """Image-construction error (overcommitted regions, bad links...)."""


#: Permissions of a compartment's globals capability: everything except
#: EX (not code) and SL (locals may live only on stacks).
_GLOBALS_PERMS = {
    Permission.GL,
    Permission.LD,
    Permission.SD,
    Permission.MC,
    Permission.LM,
    Permission.LG,
}

#: Permissions of a thread's stack capability: SL-bearing and *local*
#: (no GL) so references to the stack cannot be captured off-stack.
_STACK_PERMS = {
    Permission.LD,
    Permission.SD,
    Permission.MC,
    Permission.SL,
    Permission.LM,
    Permission.LG,
}

#: Executable permissions for compartment code (PC-relative ABI set).
_CODE_PERMS = {
    Permission.GL,
    Permission.EX,
    Permission.LD,
    Permission.MC,
    Permission.LG,
    Permission.LM,
}


class Loader:
    """Builds compartments, threads and import links from the roots."""

    def __init__(
        self,
        memory_map: MemoryMap,
        roots: RootSet,
        switcher: CompartmentSwitcher,
    ) -> None:
        self.memory_map = memory_map
        self.switcher = switcher
        self._roots: Optional[RootSet] = roots
        self._code_cursor = memory_map.code.base
        self._globals_cursor = memory_map.globals_.base
        self._stack_cursor = memory_map.stacks.base
        self._next_tid = 1
        self._compartments: Dict[str, Compartment] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Root discipline
    # ------------------------------------------------------------------

    def _require_roots(self) -> RootSet:
        if self._roots is None or self._finalized:
            raise LoaderError("loader finalized: the roots have been erased")
        return self._roots

    def finalize(self) -> None:
        """Erase the boot roots; no further authority can be minted.

        Also snapshots every compartment's globals: this is the image
        the RESTART recovery path (section 5.2) restores, so a faulted
        compartment can be reset to a known-good state.
        """
        for compartment in self._compartments.values():
            compartment.snapshot_globals()
        self._roots = None
        self._finalized = True

    # ------------------------------------------------------------------
    # Carving
    # ------------------------------------------------------------------

    def _carve(self, cursor: int, size: int, region: Region, what: str) -> int:
        size = (size + 15) & ~15
        if cursor + size > region.top:
            raise LoaderError(f"{what}: region {region.name} exhausted")
        return size

    def add_compartment(
        self,
        name: str,
        code_size: int = 4096,
        globals_size: int = 4096,
    ) -> Compartment:
        """Create a compartment with carved code and globals regions."""
        roots = self._require_roots()
        if name in self._compartments:
            raise LoaderError(f"duplicate compartment {name!r}")
        code_size = self._carve(
            self._code_cursor, code_size, self.memory_map.code, name
        )
        globals_size = self._carve(
            self._globals_cursor, globals_size, self.memory_map.globals_, name
        )
        code_cap = (
            roots.executable.set_address(self._code_cursor)
            .set_bounds(code_size)
            .and_perms(_CODE_PERMS)
        )
        globals_region = Region(f"{name}.globals", self._globals_cursor, globals_size)
        globals_cap = (
            roots.memory.set_address(self._globals_cursor)
            .set_bounds(globals_size)
            .and_perms(_GLOBALS_PERMS)
        )
        self._code_cursor += code_size
        self._globals_cursor += globals_size
        compartment = Compartment(name, code_cap, globals_cap, globals_region)
        self._compartments[name] = compartment
        self.switcher.register_compartment(compartment)
        return compartment

    def add_thread(
        self,
        name: str,
        stack_size: int = 1024,
        priority: int = 0,
        entry_compartment: str = "",
    ) -> Thread:
        """Create a thread with a carved stack and local stack capability."""
        roots = self._require_roots()
        stack_size = self._carve(
            self._stack_cursor, stack_size, self.memory_map.stacks, name
        )
        region = Region(f"{name}.stack", self._stack_cursor, stack_size)
        stack_cap = (
            roots.memory.set_address(region.base)
            .set_bounds(stack_size)
            .and_perms(_STACK_PERMS)
        )
        self._stack_cursor += stack_size
        thread = Thread(
            tid=self._next_tid,
            name=name,
            stack_region=region,
            stack_cap=stack_cap,
            priority=priority,
            entry_compartment=entry_compartment,
        )
        self._next_tid += 1
        return thread

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------

    def link(self, importer: str, exporter: str, export_name: str) -> ImportToken:
        """Resolve one import: mint the sealed token and install it.

        The sealed capability's *address* names the export-table entry —
        a unique slot the loader allocates per ``(compartment, export)``
        pair and registers with the switcher.  A token whose names
        disagree with the entry its sealed capability points at is a
        forgery and faults at call time: the names in the token are a
        convenience, the sealed address is the authority.
        """
        roots = self._require_roots()
        source = self._compartments.get(importer)
        target = self._compartments.get(exporter)
        if source is None or target is None:
            raise LoaderError(f"link {importer} -> {exporter}: unknown compartment")
        target.get_export(export_name)  # must exist
        seal_authority = roots.sealing.set_address(
            RTOS_DATA_OTYPES["compartment-export"]
        )
        entry_address = self.switcher.register_export_entry(
            exporter, export_name, target.globals_cap
        )
        entry_cap = target.globals_cap.set_address(entry_address)
        token = ImportToken(exporter, export_name, entry_cap.seal(seal_authority))
        source.add_import(token)
        return token

    def grant_mmio(
        self, compartment: str, region: Region, slot: str
    ) -> Capability:
        """Grant a device window to exactly one compartment.

        Used to hand the revocation bitmap and the revoker's registers
        to the allocator compartment only (sections 3.3.1, 3.3.3).
        """
        roots = self._require_roots()
        target = self._compartments.get(compartment)
        if target is None:
            raise LoaderError(f"unknown compartment {compartment!r}")
        cap = (
            roots.memory.set_address(region.base)
            .set_bounds(region.size)
            .and_perms({Permission.GL, Permission.LD, Permission.SD, Permission.MC})
        )
        target.store_global_cap(slot, cap)
        return cap

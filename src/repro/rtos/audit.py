"""Auditing the system image (paper section 3.1.2).

"For auditing, it is far more useful to know which code runs with
interrupts disabled than it is to know which code may toggle
interrupts."  Because interrupt posture is carried by the sentry type an
export is sealed with — not by a togglable privilege — the complete set
of interrupts-disabled code is statically enumerable from the image.

These helpers walk a switcher's compartment registry and produce that
enumeration, plus the *full* authority linkage of the image:

* every export and the posture its entry sentry encodes,
* every resolved import — the sealed token, its otype, and the
  export-table entry it points at (forgeable-name, unforgeable-address),
* every held capability grant with its actual bounds and permissions,
  classified against the SoC memory map (an MMIO window grant is a
  different review item than a data capability).

This is the linkage schema the policy engine
(:mod:`repro.verify.policy`) evaluates declarative rules against; it is
the firmware-signing-time review the CHERIoT project performs on real
images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.capability import Capability
from repro.memory.layout import MemoryMap

from .compartment import Compartment, InterruptPosture
from .switcher import CompartmentSwitcher


@dataclass(frozen=True)
class ExportRecord:
    compartment: str
    export: str
    posture: str

    def to_dict(self) -> dict:
        return {
            "compartment": self.compartment,
            "export": self.export,
            "posture": self.posture,
        }


@dataclass(frozen=True)
class ImportRecord:
    """One resolved import: who may call what, and through which token.

    The names are the convenience; the sealed capability's otype and
    entry address are the authority — a mismatch is a forgery that
    faults at call time, and the audit surfaces both so a reviewer can
    check they agree with the link graph the vendor claims.
    """

    importer: str
    exporter: str
    export: str
    otype: int
    sealed: bool
    entry_address: int

    def to_dict(self) -> dict:
        return {
            "importer": self.importer,
            "exporter": self.exporter,
            "export": self.export,
            "otype": self.otype,
            "sealed": self.sealed,
            "entry_address": self.entry_address,
        }


@dataclass(frozen=True)
class GrantRecord:
    """One held capability grant with its actual authority spelled out.

    ``kind`` is the memory-map region the grant's base falls in when
    that region is a device window (``*_mmio``), else ``"data"`` — the
    distinction the paper's allocator-only-holds-the-revoker argument
    rests on.
    """

    compartment: str
    slot: str
    base: int
    top: int
    perms: "tuple[str, ...]"
    kind: str

    def to_dict(self) -> dict:
        return {
            "compartment": self.compartment,
            "slot": self.slot,
            "base": self.base,
            "top": self.top,
            "perms": list(self.perms),
            "kind": self.kind,
        }


@dataclass
class AuditReport:
    """Everything a reviewer needs before signing an image."""

    exports: List[ExportRecord] = field(default_factory=list)
    #: Compartment name -> named capability grants (MMIO windows etc.).
    grants: Dict[str, List[str]] = field(default_factory=dict)
    imports: List[ImportRecord] = field(default_factory=list)
    grant_records: List[GrantRecord] = field(default_factory=list)

    @property
    def interrupts_disabled(self) -> List[ExportRecord]:
        """The complete set of code entry points that run with

        interrupts off — the paper's headline audit question."""
        return [
            r for r in self.exports if r.posture == InterruptPosture.DISABLED
        ]

    def mmio_grants(self) -> List[GrantRecord]:
        """Grants whose authority lands in a device window."""
        return [g for g in self.grant_records if g.kind != "data"]

    def to_dict(self) -> dict:
        """Deterministic JSON-ready form (the one linkage schema)."""
        return {
            "exports": [r.to_dict() for r in self.exports],
            "imports": [r.to_dict() for r in self.imports],
            "grants": [g.to_dict() for g in self.grant_records],
            "interrupts_disabled": [
                f"{r.compartment}.{r.export}" for r in self.interrupts_disabled
            ],
        }

    def render(self) -> str:
        lines = ["image audit", "-----------"]
        lines.append("exports running with interrupts DISABLED:")
        disabled = self.interrupts_disabled
        if disabled:
            for record in disabled:
                lines.append(f"  {record.compartment}.{record.export}")
        else:
            lines.append("  (none)")
        lines.append("capability grants:")
        for name, slots in sorted(self.grants.items()):
            if slots:
                lines.append(f"  {name}: {', '.join(sorted(slots))}")
        mmio = self.mmio_grants()
        if mmio:
            lines.append("device windows held:")
            for grant in mmio:
                lines.append(
                    f"  {grant.compartment}.{grant.slot}: "
                    f"[{grant.base:#x}, {grant.top:#x}) {grant.kind}"
                )
        if self.imports:
            lines.append(f"resolved imports: {len(self.imports)}")
        lines.append(f"total exports: {len(self.exports)}")
        return "\n".join(lines)


def _classify_grant(cap: Capability, memory_map: MemoryMap) -> str:
    for region in (
        memory_map.revocation_mmio,
        memory_map.revoker_mmio,
        memory_map.uart_mmio,
    ):
        if region.contains(cap.base):
            return region.name
    return "data"


def audit_image(
    switcher: CompartmentSwitcher, memory_map: MemoryMap
) -> AuditReport:
    """Walk the registered compartments and build the audit report,
    classifying each grant against the SoC ``memory_map``'s device
    windows."""
    report = AuditReport()
    for name in sorted(switcher._compartments):
        compartment: Compartment = switcher._compartments[name]
        for export_name, export in sorted(compartment.exports.items()):
            report.exports.append(
                ExportRecord(name, export_name, export.posture)
            )
        report.grants[name] = sorted(compartment._global_caps)
        for slot in sorted(compartment._global_caps):
            cap = compartment._global_caps[slot]
            report.grant_records.append(
                GrantRecord(
                    compartment=name,
                    slot=slot,
                    base=cap.base,
                    top=cap.top,
                    perms=tuple(sorted(p.name for p in cap.perms)),
                    kind=_classify_grant(cap, memory_map),
                )
            )
        for key in sorted(compartment._imports):
            token = compartment._imports[key]
            sealed_cap = token.sealed_cap
            report.imports.append(
                ImportRecord(
                    importer=name,
                    exporter=token.compartment_name,
                    export=token.export_name,
                    otype=sealed_cap.otype,
                    sealed=sealed_cap.is_sealed,
                    entry_address=sealed_cap.address,
                )
            )
    return report

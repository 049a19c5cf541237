"""Tests for the image audit (section 3.1.2's auditability claim)."""

from repro.machine import System
from repro.rtos import InterruptPosture, audit_image


def _audit(system):
    return audit_image(system.switcher, system.loader.memory_map)


class TestAudit:
    def test_system_image_audits_clean(self):
        system = System.build()
        report = _audit(system)
        names = {(r.compartment, r.export) for r in report.exports}
        assert ("alloc", "malloc") in names
        assert ("alloc", "free") in names
        # Only the allocator holds the revocation MMIO grants.
        assert "revocation-bitmap" in report.grants["alloc"]
        assert "revocation-bitmap" not in report.grants["app"]

    def test_interrupts_disabled_enumeration(self):
        system = System.build(finalize=False)
        critical = system.loader.add_compartment("critical")
        critical.export("nmi_window", lambda ctx: None,
                        posture=InterruptPosture.DISABLED)
        system.loader.finalize()
        report = _audit(system)
        disabled = {(r.compartment, r.export) for r in report.interrupts_disabled}
        assert disabled == {("critical", "nmi_window")}

    def test_render(self):
        system = System.build()
        text = _audit(system).render()
        assert "image audit" in text
        assert "alloc" in text
        assert "total exports" in text

"""The extended linkage report: sealed imports, classified grants.

``repro.rtos.audit`` grew import-token records and MMIO-classified
grant records (re-exported through ``repro.verify.policy`` as the one
linkage schema); the stock image's report is the reference instance.
"""

import pytest

from repro.machine import System
from repro.verify.policy import GrantRecord, ImportRecord, audit_image


@pytest.fixture(scope="module")
def report():
    system = System.build()
    return audit_image(system.switcher, system.loader.memory_map)


def test_report_records_sealed_imports(report):
    assert report.imports, "stock image has cross-compartment imports"
    for imp in report.imports:
        assert isinstance(imp, ImportRecord)
        assert imp.sealed
        assert imp.otype == 1  # compartment-export otype


def test_grants_are_classified_against_the_memory_map(report):
    kinds = {g.kind for g in report.grant_records}
    assert "revocation_mmio" in kinds
    assert "revoker_mmio" in kinds
    for grant in report.grant_records:
        assert isinstance(grant, GrantRecord)
        assert grant.base < grant.top


def test_mmio_grants_filter(report):
    mmio = report.mmio_grants()
    assert mmio
    assert all(g.kind != "data" for g in mmio)


def test_to_dict_is_the_one_schema(report):
    doc = report.to_dict()
    assert set(doc) == {"exports", "imports", "grants", "interrupts_disabled"}
    for imp in doc["imports"]:
        assert set(imp) == {
            "importer",
            "exporter",
            "export",
            "otype",
            "sealed",
            "entry_address",
        }
    for grant in doc["grants"]:
        assert set(grant) == {
            "compartment",
            "slot",
            "base",
            "top",
            "perms",
            "kind",
        }


def test_render_mentions_device_windows_and_imports(report):
    text = report.render()
    assert "device windows held:" in text
    assert "resolved imports:" in text

"""Tests for the RTOS loader: carving, linking, root discipline."""

import pytest

from repro.capability import Permission as P
from repro.capability.otypes import RTOS_DATA_OTYPES
from repro.rtos.loader import LoaderError


class TestCompartmentCarving:
    def test_compartments_get_disjoint_regions(self, loader):
        a = loader.add_compartment("a")
        b = loader.add_compartment("b")
        assert a.globals_region.top <= b.globals_region.base
        assert a.code_cap.top <= b.code_cap.base

    def test_code_cap_is_executable_not_writable(self, loader):
        comp = loader.add_compartment("c")
        assert comp.code_cap.has(P.EX, P.LD)
        assert P.SD not in comp.code_cap.perms

    def test_globals_cap_has_no_sl(self, loader):
        comp = loader.add_compartment("c")
        assert P.SL not in comp.globals_cap.perms
        assert comp.globals_cap.has(P.LD, P.SD, P.MC)

    def test_duplicate_name_rejected(self, loader):
        loader.add_compartment("dup")
        with pytest.raises(LoaderError):
            loader.add_compartment("dup")

    def test_region_exhaustion(self, loader, mm):
        with pytest.raises(LoaderError):
            loader.add_compartment("huge", globals_size=mm.globals_.size + 16)


class TestThreads:
    def test_stack_cap_is_local_with_sl(self, loader):
        thread = loader.add_thread("t", stack_size=1024)
        assert thread.stack_cap.is_local
        assert P.SL in thread.stack_cap.perms
        assert thread.sp == thread.stack_region.top

    def test_stacks_disjoint(self, loader):
        t1 = loader.add_thread("t1")
        t2 = loader.add_thread("t2")
        assert t1.stack_region.top <= t2.stack_region.base

    def test_tids_unique(self, loader):
        assert loader.add_thread("x").tid != loader.add_thread("y").tid


class TestLinking:
    def test_link_produces_sealed_token(self, loader):
        a = loader.add_compartment("a")
        b = loader.add_compartment("b")
        b.export("fn", lambda ctx: None)
        token = loader.link("a", "b", "fn")
        assert token.sealed_cap.is_sealed
        assert token.sealed_cap.otype == RTOS_DATA_OTYPES["compartment-export"]
        assert a.get_import("b", "fn") is token

    def test_link_requires_existing_export(self, loader):
        loader.add_compartment("a")
        loader.add_compartment("b")
        with pytest.raises(KeyError):
            loader.link("a", "b", "missing")

    def test_link_unknown_compartment(self, loader):
        loader.add_compartment("a")
        with pytest.raises(LoaderError):
            loader.link("a", "ghost", "fn")


class TestMMIOGrants:
    def test_grant_stores_capability_in_compartment(self, loader, mm):
        comp = loader.add_compartment("alloc")
        cap = loader.grant_mmio("alloc", mm.revocation_mmio, "bitmap")
        assert comp.load_global_cap("bitmap") == cap
        assert cap.base == mm.revocation_mmio.base
        assert cap.top == mm.revocation_mmio.top

    def test_other_compartments_have_no_grant(self, loader, mm):
        loader.add_compartment("alloc")
        other = loader.add_compartment("other")
        loader.grant_mmio("alloc", mm.revocation_mmio, "bitmap")
        with pytest.raises(KeyError):
            other.load_global_cap("bitmap")


class TestRootDiscipline:
    def test_finalize_erases_roots(self, loader):
        loader.add_compartment("a")
        loader.finalize()
        with pytest.raises(LoaderError):
            loader.add_compartment("b")
        with pytest.raises(LoaderError):
            loader.add_thread("t")

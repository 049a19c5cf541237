"""Tests for compartments: exports, imports and the SL globals rule."""

import pytest

from repro.capability import Capability, Permission as P
from repro.capability.errors import PermissionFault
from repro.rtos.compartment import Compartment, InterruptPosture

RW = {P.GL, P.LD, P.SD, P.MC, P.LM, P.LG}


def make_compartment(name="c"):
    code = Capability.from_bounds(0x2000_0000, 4096, {P.GL, P.EX, P.LD, P.MC})
    globals_ = Capability.from_bounds(0x2004_0000, 4096, RW)
    return Compartment(name, code, globals_)


class TestConstruction:
    def test_code_must_be_executable(self):
        data = Capability.from_bounds(0x2000_0000, 4096, RW)
        globals_ = Capability.from_bounds(0x2004_0000, 4096, RW)
        with pytest.raises(PermissionFault):
            Compartment("bad", data, globals_)

    def test_globals_must_not_carry_sl(self):
        """Section 5.2: the compartment's global pointer has SL cleared

        so the stack stays the only home for local capabilities."""
        code = Capability.from_bounds(0x2000_0000, 4096, {P.GL, P.EX, P.LD, P.MC})
        globals_sl = Capability.from_bounds(0x2004_0000, 4096, RW | {P.SL})
        with pytest.raises(PermissionFault):
            Compartment("bad", code, globals_sl)


class TestExportsImports:
    def test_export_and_lookup(self):
        comp = make_compartment()
        export = comp.export("entry", lambda ctx: 1)
        assert comp.get_export("entry") is export
        assert export.posture == InterruptPosture.ENABLED

    def test_duplicate_export_rejected(self):
        comp = make_compartment()
        comp.export("entry", lambda ctx: 1)
        with pytest.raises(ValueError):
            comp.export("entry", lambda ctx: 2)

    @pytest.mark.parametrize(
        "posture", ["disable", "Enabled", "", None, InterruptPosture]
    )
    def test_unknown_posture_rejected(self, posture):
        """An export runs DISABLED, ENABLED or INHERIT and nothing else:
        any other posture would have run as INHERIT and been audited as
        interrupts-enabled."""
        comp = make_compartment()
        with pytest.raises(ValueError) as info:
            comp.export("entry", lambda ctx: 1, posture=posture)
        message = str(info.value)
        for name in ("inherit", "disabled", "enabled"):
            assert repr(name) in message
        assert comp.exports == {}

    @pytest.mark.parametrize("posture", [
        InterruptPosture.INHERIT,
        InterruptPosture.DISABLED,
        InterruptPosture.ENABLED,
    ])
    def test_each_posture_accepted(self, posture):
        comp = make_compartment()
        assert comp.export("entry", lambda ctx: 1, posture=posture).posture == posture

    def test_unknown_export(self):
        with pytest.raises(KeyError):
            make_compartment().get_export("missing")

    def test_unknown_import(self):
        with pytest.raises(KeyError):
            make_compartment().get_import("other", "fn")


class TestGlobalCapabilitySlots:
    def test_global_cap_storable(self):
        comp = make_compartment()
        cap = Capability.from_bounds(0x2004_0000, 64, RW)
        comp.store_global_cap("buffer", cap)
        assert comp.load_global_cap("buffer") == cap

    def test_local_cap_store_faults(self):
        """Storing a local capability needs SL; globals never have it."""
        comp = make_compartment()
        local = Capability.from_bounds(0x2004_0000, 64, RW).make_local()
        with pytest.raises(PermissionFault):
            comp.store_global_cap("stolen", local)

    def test_untagged_local_bits_are_storable(self):
        """Untagged values are just bits — the SL check is about

        *capabilities*, not patterns."""
        comp = make_compartment()
        junk = Capability.from_bounds(0x2004_0000, 64, RW).make_local().untagged()
        comp.store_global_cap("junk", junk)

    def test_non_capability_rejected(self):
        with pytest.raises(TypeError):
            make_compartment().store_global_cap("x", 42)

"""Tests for the System facade: construction across every configuration."""

import gc
import weakref

import pytest

from repro.allocator import TemporalSafetyMode as M
from repro.machine import System
from repro.pipeline import CoreKind


class TestBuildMatrix:
    @pytest.mark.parametrize("core", [CoreKind.FLUTE, CoreKind.IBEX])
    @pytest.mark.parametrize("mode", list(M))
    @pytest.mark.parametrize("hwm", [False, True])
    def test_every_configuration_boots_and_allocates(self, core, mode, hwm):
        system = System.build(core=core, mode=mode, hwm_enabled=hwm)
        cap = system.malloc(48)
        assert cap.tag and cap.length >= 48
        system.free(cap)
        assert system.core_model.cycles > 0

    def test_lazy_top_level_import(self):
        import repro

        assert repro.System is System
        assert repro.CoreKind is CoreKind


class TestWiring:
    @pytest.fixture
    def system(self):
        return System.build()

    def test_allocator_is_a_compartment_with_mmio_grants(self, system):
        alloc = system.switcher.compartment("alloc")
        bitmap = alloc.load_global_cap("revocation-bitmap")
        assert bitmap.base == system.memory_map.revocation_mmio.base
        # No other compartment holds the grant.
        with pytest.raises(KeyError):
            system.app.load_global_cap("revocation-bitmap")

    def test_revoker_reachable_through_mmio(self, system):
        from repro.revoker.hardware import REG_EPOCH

        base = system.memory_map.revoker_mmio.base
        assert system.bus.read_word(base + REG_EPOCH, 4) == system.epoch.value

    def test_revocation_bitmap_reachable_through_mmio(self, system):
        cap = system.malloc(64)
        system.free(cap)
        base = system.memory_map.revocation_mmio.base
        offset = (cap.base - system.memory_map.heap.base) // 8 // 8
        word = system.bus.read_word(base + (offset & ~3), 4)
        assert word != 0

    def test_malloc_goes_through_the_switcher(self, system):
        calls = system.switcher.stats.calls
        system.free(system.malloc(16))
        assert system.switcher.stats.calls == calls + 2

    def test_roots_erased_after_build(self, system):
        from repro.rtos.loader import LoaderError

        with pytest.raises(LoaderError):
            system.loader.add_compartment("latecomer")

    def test_reset_cycles(self, system):
        system.free(system.malloc(16))
        system.reset_cycles()
        assert system.core_model.cycles == 0

    def test_wait_policy_matches_core(self):
        """Ibex has the completion interrupt; Flute polls (7.2.2)."""
        ibex = System.build(core=CoreKind.IBEX)
        flute = System.build(core=CoreKind.FLUTE)
        big = ibex.memory_map.heap.size * 3 // 5
        for system in (ibex, flute):
            blob = system.malloc(big)
            system.free(blob)
            blob = system.malloc(big)  # blocks on a revocation pass
            system.free(blob)
        assert flute.allocator.stats.revocation_passes >= 1
        assert ibex.allocator.stats.revocation_passes >= 1


class TestFreedWithoutTheCollector:
    def test_dropped_system_freed_by_refcount(self):
        """The background revoker refers to its bus weakly, and the
        switcher's token bindings hold nothing that refers back to it,
        so dropping a System frees it, its switcher, its allocator, its
        bus and its SRAM without the cyclic collector."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            system = System.build()
            system.free(system.malloc(64))
            system.allocator.revoke_now()
            assert len(system.switcher._bindings) == 2
            refs = [
                weakref.ref(part)
                for part in (
                    system, system.switcher, system.allocator, system.bus,
                    system.sram, system.hardware_revoker,
                )
            ]
            del system
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()


class TestIntrospection:
    def test_stats_summary_shape(self):
        system = System.build()
        system.free(system.malloc(32))
        assert system.allocator.stats.mallocs == 1
        assert system.switcher.stats.calls == 2
        assert system.core_model.cycles > 0
        assert system.allocator.live_allocations == 0

    def test_audit_accessible(self):
        from repro.rtos import audit_image

        system = System.build()
        report = audit_image(system.switcher, system.loader.memory_map)
        assert any(r.export == "malloc" for r in report.exports)
        windows = {(g.slot, g.kind) for g in report.mmio_grants()}
        assert windows == {
            ("revocation-bitmap", "revocation_mmio"),
            ("revoker-device", "revoker_mmio"),
        }


class TestMakeCpu:
    def test_cheriot_cpu_shares_bus_and_filter(self):
        from repro.isa import ExecutionMode

        system = System.build(load_filter_enabled=True)
        cpu = system.make_cpu()
        assert cpu.mode is ExecutionMode.CHERIOT
        assert cpu.bus is system.bus
        assert cpu.load_filter is system.load_filter
        assert cpu.timing is system.core_model

    def test_filterless_system_gives_filterless_cpu(self):
        system = System.build(load_filter_enabled=False)
        assert system.make_cpu().load_filter is None


class TestBackgroundPassVisibility:
    def test_reap_gated_on_wall_clock_completion(self):
        """A threshold-triggered background pass finishes functionally

        at kick, but its results only become reapable after its wall
        time has elapsed on the core clock."""
        from repro.allocator import TemporalSafetyMode

        system = System.build(mode=TemporalSafetyMode.HARDWARE,
                              quarantine_threshold=4096)
        # Cross the threshold: a background pass starts.
        caps = [system.malloc(1024) for _ in range(5)]
        for cap in caps:
            system.free(cap)
        assert system.allocator.stats.revocation_passes >= 1
        quarantined = system.allocator.quarantined_bytes
        assert quarantined > 0  # not yet reapable: the pass is "running"
        # Burn cycles past the pass deadline; the next allocator entry
        # collects the results.
        system.core_model.charge(10_000_000)
        system.free(system.malloc(16))
        assert system.allocator.quarantined_bytes < quarantined

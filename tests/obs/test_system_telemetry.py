"""System-level telemetry: registry wiring, diffs, and the off-path
differential — telemetry must never perturb the simulation.
"""

import pytest

from repro.allocator import TemporalSafetyMode
from repro.isa import CPU
from repro.machine import CoreKind, System
from repro.obs.workload import (
    run_alloc_phase,
    run_kernel_phase,
    run_traced_workload,
)


def build(telemetry):
    return System.build(
        core=CoreKind.IBEX,
        mode=TemporalSafetyMode.HARDWARE,
        telemetry=telemetry,
        quarantine_threshold=8192,
    )


class TestRegistryWiring:
    def test_stats_summary_shape_identical_on_and_off(self):
        on, off = build(True), build(False)
        s_on, s_off = on.stats_summary(), off.stats_summary()
        assert list(s_on) == list(s_off)
        for group in s_on:
            if isinstance(s_on[group], dict):
                assert list(s_on[group]) == list(s_off[group])

    def test_obs_metrics_only_in_full_snapshot(self):
        system = build(True)
        assert "obs.spans" not in system.stats_summary()
        snap = system.stats_snapshot()
        assert "obs.spans" in snap
        assert "obs.alloc_bytes" in snap

    def test_stats_diff_isolates_a_workload(self):
        system = build(True)
        before = system.stats_snapshot()
        cap = system.malloc(64)
        system.free(cap)
        diff = system.stats_diff(before)
        assert diff["switcher"]["calls"] == 2
        assert diff["heap"]["mallocs"] == 1
        assert diff["cycles"] > 0
        # A second diff from the new baseline starts at zero.
        assert system.stats_diff(system.stats_snapshot())["cycles"] == 0

    def test_reset_cycles_rebases_attribution(self):
        system = build(True)
        system.reset_cycles()
        run_alloc_phase(system, rounds=5)
        totals = system.obs.attributor.snapshot()
        assert sum(totals.values()) == system.core_model.cycles


class TestTelemetryOffDifferential:
    def test_workload_is_bit_identical_with_telemetry_off(self):
        """The tentpole's zero-cost claim, functionally: the same
        workload on telemetry-on and telemetry-off systems produces
        identical cycle counts and identical classic stats."""
        on = run_traced_workload(telemetry=True, rounds=10)
        off = run_traced_workload(telemetry=False, rounds=10)
        assert on["kernel_cycles"] == off["kernel_cycles"]
        sys_on, sys_off = on["system"], off["system"]
        assert sys_on.core_model.cycles == sys_off.core_model.cycles
        s_on, s_off = sys_on.stats_summary(), sys_off.stats_summary()
        # The execution-tier group is host-side counters: telemetry
        # attaches retire hooks, which deoptimize the fused tier, so
        # translation activity differs by design.  Every
        # *architectural* group must still match exactly — which is the
        # tier-transparency claim seen from the other side.
        host_side = {"block_cache"}
        assert list(s_on) == list(s_off)
        for group in s_on:
            if group not in host_side:
                assert s_on[group] == s_off[group], group

    def test_off_system_has_no_obs_anywhere(self):
        system = build(False)
        assert system.obs is None
        for holder in (
            system.switcher,
            system.scheduler,
            system.allocator,
            system.software_revoker,
        ):
            assert holder.obs is None


class TestTracedWorkload:
    def test_produces_all_required_span_categories(self):
        result = run_traced_workload(rounds=10)
        system = result["system"]
        categories = {s.category for s in system.obs.tracer.events()}
        # The acceptance bar: compartment-switch, allocator and revoker
        # activity all present in one trace.
        assert {"switcher", "compartment", "alloc", "revoker"} <= categories

    def test_kernel_phase_attributes_to_app(self):
        result = run_traced_workload(rounds=5)
        totals = result["system"].obs.attributor.snapshot()
        assert totals["app"] >= result["kernel_cycles"]
        assert result["profiler"].total_cycles == result["kernel_cycles"]

    def test_kernel_phase_globals_do_not_cover_its_stack(self, monkeypatch):
        """``cgp`` must not reach the kernel's stack: code holding only
        the globals capability could otherwise rewrite stack frames."""
        entry = {}
        run = CPU.run

        def record_entry(cpu, *args, **kwargs):
            entry["csp"], entry["cgp"] = cpu.regs.read(2), cpu.regs.read(3)
            return run(cpu, *args, **kwargs)

        monkeypatch.setattr(CPU, "run", record_entry)
        run_kernel_phase(build(False))
        csp, cgp = entry["csp"], entry["cgp"]
        assert csp.tag and cgp.tag
        assert csp.top <= cgp.base or cgp.top <= csp.base

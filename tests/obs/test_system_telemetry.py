"""System-level telemetry: cycle resets, and the off-path differential —
telemetry must never perturb the simulation.
"""

from dataclasses import asdict

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


def state(system):
    """The architectural outcome of a run: cycles, epoch, heap occupancy
    and every subsystem's counters.  The CPUs' block-cache counters are
    host-side and left out: telemetry attaches retire hooks, which
    deoptimize the fused tier, so translation activity differs by
    design — the tier-transparency claim seen from the other side."""
    holders = (
        system.bus,
        system.allocator,
        system.switcher,
        system.scheduler,
        system.software_revoker,
        system.hardware_revoker,
        system.load_filter,
    )
    return (
        system.core_model.cycles,
        system.epoch.value,
        system.allocator.quarantined_bytes,
        system.allocator.live_allocations,
        [asdict(holder.stats) for holder in holders],
    )


class TestResetCycles:
    def test_reset_cycles_rebases_attribution(self):
        system = build(True)
        system.reset_cycles()
        run_alloc_phase(system, rounds=5)
        totals = system.obs.attributor.snapshot()
        assert sum(totals.values()) == system.core_model.cycles

    def test_reset_mid_run_restarts_attribution(self):
        # Cycles attributed before the reset must not outlive it, or the
        # totals overshoot the core's count and ``make profile`` fails.
        system = build(True)
        system.free(system.malloc(64))
        system.reset_cycles()
        system.free(system.malloc(64))
        totals = system.obs.attributor.snapshot()
        assert sum(totals.values()) == system.core_model.cycles > 0


class TestTelemetryOffDifferential:
    def test_workload_is_bit_identical_with_telemetry_off(self):
        """The tentpole's zero-cost claim, functionally: the same
        workload on telemetry-on and telemetry-off systems produces
        identical cycle counts and identical subsystem counters."""
        on = run_traced_workload(telemetry=True, rounds=10)
        off = run_traced_workload(telemetry=False, rounds=10)
        assert on["kernel_cycles"] == off["kernel_cycles"]
        assert state(on["system"]) == state(off["system"])

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

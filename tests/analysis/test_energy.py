"""Tests for the energy/battery model."""

import pytest

from repro.analysis.energy import (
    estimate_energy,
    security_battery_cost,
)
from repro.hw.area_power import rv32e, with_background_revoker


class TestEstimates:
    def test_power_scales_with_frequency(self):
        slow = estimate_energy(0.2, 60, clock_mhz=20)
        fast = estimate_energy(0.2, 60, clock_mhz=200)
        assert fast.active_mw == pytest.approx(10 * slow.active_mw)

    def test_idle_dominates_at_low_duty_cycle(self):
        est = estimate_energy(cpu_load=0.15, duration_s=60)
        idle_part = (1 - est.cpu_load) * est.idle_mw
        active_part = est.cpu_load * est.active_mw
        assert est.average_mw == pytest.approx(idle_part + active_part)
        assert idle_part > active_part * 0.3  # idle is a real factor

    def test_battery_life_reasonable(self):
        """A mostly-idle 20 MHz core on a coin cell: weeks, not hours."""
        est = estimate_energy(cpu_load=0.15, duration_s=60)
        assert 30 < est.cr2032_days < 10_000

    def test_higher_load_shorter_life(self):
        idle = estimate_energy(0.05, 60)
        busy = estimate_energy(0.95, 60)
        assert busy.cr2032_days < idle.cr2032_days

    def test_variant_selection(self):
        base = estimate_energy(0.2, 60, variant=rv32e())
        full = estimate_energy(0.2, 60, variant=with_background_revoker())
        assert full.energy_mj > base.energy_mj


class TestSecurityCost:
    def test_cheriot_vs_pmp_within_tens_of_percent(self):
        """The adopter's question: complete memory safety costs a

        bounded, modest battery premium over the PMP status quo."""
        cheriot, pmp, extra = security_battery_cost(cpu_load=0.15, duration_s=60)
        assert 0 < extra < 0.5
        assert cheriot.average_mw > pmp.average_mw

    def test_premium_tracks_the_power_ratio(self):
        cheriot, pmp, extra = security_battery_cost(cpu_load=1.0, duration_s=1)
        from repro.hw.area_power import rv32e_pmp16, with_background_revoker

        ratio = with_background_revoker().power_mw / rv32e_pmp16().power_mw
        assert 1 + extra == pytest.approx(ratio)

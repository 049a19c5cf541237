"""Tests for the f_max claim: the CHERIoT additions stay off the

critical path (all variants at the baseline 330 MHz)."""

from repro.hw.area_power import FMAX_MHZ
from repro.hw.critical_path import format_timing, timing_reports


class TestCriticalPath:
    def test_every_variant_meets_baseline_fmax(self):
        """The paper: "All Ibex configurations had a f_max of 330 MHz"."""
        for report in timing_reports():
            assert report.meets_baseline_fmax, report
            assert report.fmax_mhz >= FMAX_MHZ - 1

    def test_critical_path_is_always_a_baseline_path(self):
        baseline_blocks = {"fetch-align", "decode", "alu-bypass",
                           "lsu-align", "writeback-mux"}
        for report in timing_reports():
            assert report.critical_block in baseline_blocks

    def test_load_filter_off_the_critical_path(self):
        """Section 3.3.2: "finding the base would not be on the

        critical path"."""
        filter_variant = {r.variant: r for r in timing_reports()}["+ load filter"]
        assert "load-filter" not in filter_variant.critical_block

    def test_five_variants_in_table_order(self):
        names = [r.variant for r in timing_reports()]
        assert names == [
            "RV32E", "RV32E + PMP16", "RV32E + capabilities",
            "+ load filter", "+ background revoker",
        ]

    def test_render(self):
        text = format_timing()
        assert "330 MHz" in text
        assert "alu-bypass" in text

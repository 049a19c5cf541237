"""Tests for the Table 2 structural area/power model."""

import pytest

from repro.hw.area_power import (
    BASELINE_GATES,
    BASELINE_POWER_MW,
    Table2Row,
    area_power_table,
    format_table2,
    ibex_variants,
    read_table2,
    rv32e,
    rv32e_capabilities,
    rv32e_pmp16,
    with_background_revoker,
    with_load_filter,
)

#: Table 2 of the paper.
PAPER = {
    "RV32E": (26988, 1.437),
    "RV32E + PMP16": (55905, 2.16),
    "RV32E + capabilities": (58110, 2.58),
    "+ load filter": (58431, 2.58),
    "+ background revoker": (61422, 2.73),
}


class TestGateCounts:
    def test_baseline_calibrated_exactly(self):
        assert rv32e().gates == BASELINE_GATES == PAPER["RV32E"][0]

    @pytest.mark.parametrize("name,expected", [(k, v[0]) for k, v in PAPER.items()])
    def test_every_row_matches_paper(self, name, expected):
        variant = {v.name: v for v in ibex_variants()}[name]
        assert variant.gates == expected

    def test_ratios(self):
        """PMP 2.07x, caps 2.15x, +filter 2.17x, +revoker 2.28x."""
        base = rv32e().gates
        assert rv32e_pmp16().gates / base == pytest.approx(2.07, abs=0.01)
        assert rv32e_capabilities().gates / base == pytest.approx(2.15, abs=0.01)
        assert with_load_filter().gates / base == pytest.approx(2.17, abs=0.01)
        assert with_background_revoker().gates / base == pytest.approx(2.28, abs=0.01)

    def test_load_filter_tiny_over_capabilities(self):
        """+4.5% gate overhead relative to PMP; vs caps it is ~321 GE."""
        delta = with_load_filter().gates - rv32e_capabilities().gates
        assert 0 < delta < 1000

    def test_revoker_under_ten_percent_over_pmp(self):
        """Adding filter + revoker stays <10% above the PMP baseline."""
        overhead = with_background_revoker().gates / rv32e_pmp16().gates
        assert overhead < 1.10


class TestPower:
    def test_baseline_power_calibrated(self):
        assert rv32e().power_mw == pytest.approx(BASELINE_POWER_MW)

    @pytest.mark.parametrize("name,expected", [(k, v[1]) for k, v in PAPER.items()])
    def test_rows_close_to_paper(self, name, expected):
        variant = {v.name: v for v in ibex_variants()}[name]
        assert variant.power_mw == pytest.approx(expected, rel=0.03)

    def test_cheriot_and_pmp_same_ballpark(self):
        """The paper's conclusion: similar power, CHERIoT a bit higher."""
        pmp = rv32e_pmp16().power_mw
        cheriot = with_background_revoker().power_mw
        assert pmp < cheriot < 1.5 * pmp


class TestTableRendering:
    def test_rows_in_paper_order(self):
        rows = area_power_table()
        assert [r.name for r in rows] == list(PAPER)

    def test_format_contains_all_rows(self):
        text = format_table2()
        for name in PAPER:
            assert name in text

    def test_read_inverts_render(self):
        rows = [
            Table2Row("RV32E", 26988, 1.0, 1.437, 1.0),
            Table2Row("RV32E + PMP16", 55905, 2.07, 2.156, 1.5),
            Table2Row("+ background revoker", 61422, 2.28, 2.76, 1.92),
        ]
        assert read_table2(format_table2(rows)) == rows

    def test_block_budgets_sum(self):
        for variant in ibex_variants():
            assert variant.gates == sum(b.gates for b in variant.blocks)
